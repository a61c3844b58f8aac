#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench
{

namespace
{

thread_local int currentSpan = -1;
thread_local int currentOp = -1;

} // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

int
Tracer::open(const std::string &name)
{
    SpanRecord rec;
    rec.name = name;
    rec.parent = currentSpan;
    rec.op = currentOp;
    std::lock_guard<std::mutex> lock(mutex_);
    rec.start = nowSeconds();
    spans_.push_back(std::move(rec));
    currentSpan = static_cast<int>(spans_.size()) - 1;
    return currentSpan;
}

void
Tracer::close(int id)
{
    double end = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<size_t>(id)].end = end;
    currentSpan = spans_[static_cast<size_t>(id)].parent;
}

void
Tracer::setOperation(int op)
{
    currentOp = op;
}

std::vector<SpanRecord>
Tracer::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

SelfTimes
selfTimes(const std::vector<SpanRecord> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].parent >= 0)
            children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
    SelfTimes out;
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::vector<std::pair<double, double>> iv;
        for (size_t c : children[i])
            iv.emplace_back(spans[c].start, spans[c].end);
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double lo = 0.0;
        double hi = -1.0;
        for (const auto &[a, b] : iv) {
            if (a > hi) {
                if (hi > lo)
                    covered += hi - lo;
                lo = a;
                hi = b;
            } else {
                hi = std::max(hi, b);
            }
        }
        if (hi > lo)
            covered += hi - lo;
        double duration = s.end - s.start;
        out.selfSeconds[s.name] += std::max(0.0, duration - covered);
        out.calls[s.name] += 1;
        if (s.parent < 0) {
            if (s.op >= 0)
                out.rootSeconds += duration;
            else
                out.orphanSeconds += duration;
        }
    }
    return out;
}

bool
writeSpans(const std::vector<SpanRecord> &spans, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    double t0 = spans.empty() ? 0.0 : spans.front().start;
    std::fputs("[\n", f);
    for (size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::fprintf(f,
                     "{\"name\":\"%s\",\"start_us\":%.3f,"
                     "\"end_us\":%.3f,\"parent\":%d,\"op\":%d}%s\n",
                     s.name.c_str(), (s.start - t0) * 1e6,
                     (s.end - t0) * 1e6, s.parent, s.op,
                     i + 1 < spans.size() ? "," : "");
    }
    std::fputs("]\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
