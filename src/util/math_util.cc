#include "util/math_util.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace gables {

double
weightedHarmonicMean(const std::vector<double> &weights,
                     const std::vector<double> &values)
{
    GABLES_ASSERT(weights.size() == values.size(),
                  "weights/values size mismatch");
    double denom = 0.0;
    double weight_sum = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] == 0.0)
            continue;
        GABLES_ASSERT(weights[i] > 0.0, "negative weight");
        if (values[i] == 0.0)
            return 0.0;
        denom += weights[i] / values[i];
        weight_sum += weights[i];
    }
    if (weight_sum == 0.0)
        return 0.0;
    return weight_sum / denom;
}

bool
approxEqual(double a, double b, double tol)
{
    double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
    return std::fabs(a - b) <= tol * scale;
}

double
relativeError(double a, double b, double eps)
{
    return std::fabs(a - b) / std::max(std::fabs(b), eps);
}

double
shareOfSum(const std::vector<double> &terms, size_t i, double total)
{
    if (!std::isinf(total))
        return terms[i] / total;
    const double top = *std::max_element(terms.begin(), terms.end());
    auto scaled = [top](double t) {
        if (std::isinf(top))
            return std::isinf(t) ? 1.0 : 0.0;
        return t / top;
    };
    double sum = 0.0;
    for (double t : terms)
        sum += scaled(t);
    return scaled(terms[i]) / sum;
}

std::vector<double>
logspace(double lo, double hi, size_t count)
{
    GABLES_ASSERT(lo > 0.0 && hi > lo && count >= 2,
                  "bad logspace arguments");
    std::vector<double> out(count);
    double llo = std::log(lo);
    double lhi = std::log(hi);
    for (size_t i = 0; i < count; ++i) {
        double t = static_cast<double>(i) / (count - 1);
        out[i] = std::exp(llo + t * (lhi - llo));
    }
    out.front() = lo;
    out.back() = hi;
    return out;
}

std::vector<double>
linspace(double lo, double hi, size_t count)
{
    GABLES_ASSERT(count >= 2, "linspace needs >= 2 points");
    std::vector<double> out(count);
    for (size_t i = 0; i < count; ++i) {
        double t = static_cast<double>(i) / (count - 1);
        out[i] = lo + t * (hi - lo);
    }
    out.back() = hi;
    return out;
}

std::vector<double>
logTicks(double lo, double hi)
{
    GABLES_ASSERT(lo > 0.0 && hi >= lo, "bad logTicks range");
    std::vector<double> out;
    int klo = static_cast<int>(std::floor(std::log10(lo)));
    int khi = static_cast<int>(std::ceil(std::log10(hi)));
    for (int k = klo; k <= khi; ++k)
        out.push_back(std::pow(10.0, k));
    return out;
}

double
bisect(const std::function<double(double)> &fn, double lo, double hi,
       double tol, int max_iter)
{
    double flo = fn(lo);
    double fhi = fn(hi);
    if (flo == 0.0)
        return lo;
    if (fhi == 0.0)
        return hi;
    GABLES_ASSERT((flo < 0.0) != (fhi < 0.0),
                  "bisect requires a sign change on the bracket");
    for (int i = 0; i < max_iter && (hi - lo) > tol; ++i) {
        double mid = 0.5 * (lo + hi);
        double fmid = fn(mid);
        if (fmid == 0.0)
            return mid;
        if ((fmid < 0.0) == (flo < 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

double
goldenSectionMax(const std::function<double(double)> &fn, double lo,
                 double hi, double tol, int max_iter)
{
    static const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
    double a = lo;
    double b = hi;
    double c = b - phi * (b - a);
    double d = a + phi * (b - a);
    double fc = fn(c);
    double fd = fn(d);
    for (int i = 0; i < max_iter && (b - a) > tol; ++i) {
        if (fc >= fd) {
            b = d;
            d = c;
            fd = fc;
            c = b - phi * (b - a);
            fc = fn(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + phi * (b - a);
            fd = fn(d);
        }
    }
    return 0.5 * (a + b);
}

double
clamp(double v, double lo, double hi)
{
    return std::min(std::max(v, lo), hi);
}

} // namespace gables
