/**
 * @file
 * Paper-workload benchmark driver.
 *
 * Runs the paper's own networks through the functional plan path and
 * times them from outside, through public entry points only:
 *
 *   vgg16-8b    VGG-16 at 224x224, 8-bit: FunctionalExecutor::runInto
 *               on one executor, plus run_functional_batch
 *   vgg16-4b    the same network, weights and input at 4-bit
 *   lstm-8b     the paper's LSTM (39 -> 1024, 300 steps) through
 *               runLstmStep on a compiled plan
 *   smoke-cnn   dnn::make_tiny_cnn() and a short LSTM, for the
 *   smoke-lstm  benchmark's own smoke test
 *
 * Load is a closed loop: one client sends inferences back to back on
 * one executor after a warm-up. With --trace 0 the driver reports the
 * end-to-end metrics. With --trace 1 it profiles every layer through
 * one-layer plans, writes a Chrome trace-event file and reports the
 * per-layer metrics. The last line on stdout is the JSON result; the
 * line before it records the host, the checks and the output digest.
 *
 *   perfbench_driver --workload vgg16-8b --seed 1 --seconds 20 --trace 0
 *       [--expect HEX] [--commit SHA] [--trace-dir DIR]
 *   perfbench_driver --workload vgg16-8b --trace 1 --list-metrics
 */

#include <sched.h>
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/bfree.hh"
#include "dnn/im2col.hh"
#include "dnn/model_zoo.hh"
#include "dnn/quantize.hh"
#include "dnn/reference.hh"
#include "lut/pwl.hh"
#include "mem/micro_op_energy.hh"
#include "sim/cpuid.hh"
#include "sim/parallel.hh"
#include "sim/random.hh"

namespace {

using namespace bfree;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload
{
    const char *name;
    bool lstm;     ///< The end-to-end loop drives the LSTM, else the CNN.
    unsigned bits; ///< Precision of the workload's own network.
    bool smoke;    ///< Tiny CNN + short LSTM in place of the paper nets.
};

constexpr Workload kWorkloads[] = {
    {"vgg16-8b", false, 8, false},
    {"vgg16-4b", false, 4, false},
    {"lstm-8b", true, 8, false},
    {"smoke-cnn", false, 8, true},
    {"smoke-lstm", true, 8, true},
};

// Weight scales for core::random_weights. The functional ReLU and pool
// layers work in 8.8 fixed point, so activations must stay well above
// 1/256 and below 2^23; 0.1 keeps all sixteen VGG-16 layers inside that
// window. At 0.05 the LSTM's 1063-wide gate rows stay off saturation.
constexpr double kCnnWeightScale = 0.1;
constexpr double kLstmWeightScale = 0.05;

/** Inferences every end-to-end run makes, however long they take. */
constexpr unsigned kMinInferences = 2;
/** Set-ups per end-to-end run; setup_s is their median. At least the
 *  minimum, then more while they fit the budget (a short set-up needs
 *  more samples to be steady). */
constexpr unsigned kMinSetups = 3;
constexpr unsigned kMaxSetups = 50;
constexpr double kSetupBudgetSeconds = 3.0;

/** The paper's BFree LSTM latency (Table III, seq 300), in ms. */
constexpr double kPaperLstmMs = 0.43;

dnn::Network
cnnNetwork(const Workload &w)
{
    return w.smoke ? dnn::make_tiny_cnn() : dnn::make_vgg16();
}

dnn::Network
lstmNetwork(const Workload &w)
{
    return w.smoke ? dnn::make_lstm(8, 32, 12) : dnn::make_lstm();
}

// The traced run profiles both networks, so every traced run reports
// every per-layer metric: the workload's own network at its precision
// and the companion network at 8 bits.
unsigned cnnBits(const Workload &w) { return w.lstm ? 8 : w.bits; }
unsigned lstmBits(const Workload &w) { return w.lstm ? w.bits : 8; }

/** CPUs this process may run on, as nproc counts them. */
unsigned
onlineCpus()
{
    cpu_set_t set;
    return sched_getaffinity(0, sizeof set, &set) == 0
               ? static_cast<unsigned>(CPU_COUNT(&set))
               : std::thread::hardware_concurrency();
}

/** Batch workers: half of the CPUs, at least 1. */
unsigned batchWorkers() { return std::max(1u, onlineCpus() / 2); }

/** Independent random streams derived from the workload seed. */
enum class Stream : std::uint64_t { Weights = 1, Input = 2 };

sim::Rng
streamRng(std::uint64_t seed, Stream s)
{
    return sim::Rng(seed * 0x9E3779B97F4A7C15ULL
                    + static_cast<std::uint64_t>(s));
}

dnn::FloatTensor
cnnInput(const dnn::Network &net, std::uint64_t seed)
{
    const dnn::FeatureShape s = net.input();
    dnn::FloatTensor t({s.c, s.h, s.w});
    sim::Rng rng = streamRng(seed, Stream::Input);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return t;
}

using Sequence = std::vector<std::vector<float>>;

Sequence
lstmInput(const dnn::Network &net, std::uint64_t seed)
{
    sim::Rng rng = streamRng(seed, Stream::Input);
    Sequence xs(net.timesteps,
                std::vector<float>(net.layers()[0].lstmInput));
    for (std::vector<float> &x : xs)
        for (float &v : x)
            v = static_cast<float>(rng.uniformReal(-1.0, 1.0));
    return xs;
}

// ---------------------------------------------------------------------
// Results, digests and checks
// ---------------------------------------------------------------------

std::string
jsonString(const std::string &s)
{
    std::string o = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            o += '\\';
            o += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            o += buf;
        } else {
            o += c;
        }
    }
    return o + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<double> &v)
{
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        s += (i ? ", " : "") + jsonNumber(v[i]);
    return s + "]";
}

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Everything one run reports: metrics, inference tallies, checks. */
struct Report
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;

    void
    metric(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }

    /** Count one inference; @p ok is its output check. */
    void
    inference(bool ok)
    {
        ++attempted;
        if (!ok)
            ++failed;
    }

    /** A structural check (not an inference): false marks the run
     *  incorrect. */
    void
    check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        problems.push_back(what);
        std::cerr << "perfbench: check failed: " << what << "\n";
    }

    bool correct() const { return problems.empty() && failed == 0; }
};

/** Datapath energy of a stats delta, in microjoules: the same bulk
 *  conversion run_functional_batch applies to its summed tallies. */
double
datapathMicrojoules(const bce::BceStats &d)
{
    mem::BceEnergyTallies t;
    t.romLookups = d.counts.romLookups;
    t.lutReadsPim = d.lutReadsPim;
    t.lutReadsCache = d.lutReadsCache;
    t.specialLutEvents = d.specialLutEvents;
    t.cyclesByMode = d.cyclesByMode;
    mem::EnergyAccount account;
    mem::MicroOpEnergyModel(tech::TechParams{}).deposit(t, account);
    return account.total() * 1e6;
}

/** FNV-1a over the output bits, every BceStats field and the energy. */
std::uint64_t
digest(const float *out, std::size_t n, const bce::BceStats &d)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto bytes = [&h](const void *p, std::size_t len) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < len; ++i)
            h = (h ^ b[i]) * 0x100000001b3ULL;
    };
    bytes(out, n * sizeof(float));
    const std::uint64_t fields[] = {
        d.cycles, d.macs, d.configLoads, d.counts.lutLookups,
        d.counts.romLookups, d.counts.shifts, d.counts.adds,
        d.counts.cycles, d.cyclesByMode[0], d.cyclesByMode[1],
        d.cyclesByMode[2], d.lutReadsPim, d.lutReadsCache,
        d.specialLutEvents};
    bytes(fields, sizeof fields);
    const double uj = datapathMicrojoules(d);
    bytes(&uj, sizeof uj);
    return h;
}

/**
 * Judges inferences of one network. With a stored digest (the default
 * and held-out seeds) every inference must match it; otherwise every
 * inference must match the first one. Outputs must be finite.
 */
class OutputCheck
{
  public:
    explicit OutputCheck(std::optional<std::uint64_t> expected)
        : expected_(expected)
    {}

    bool
    judge(const std::vector<float> &out, const bce::BceStats &d)
    {
        const std::uint64_t dg = digest(out.data(), out.size(), d);
        if (!first_)
            first_ = dg;
        const bool finite = std::all_of(out.begin(), out.end(), [](float v) {
            return std::isfinite(v);
        });
        return finite && dg == expected_.value_or(*first_);
    }

    std::optional<std::uint64_t> first() const { return first_; }

  private:
    std::optional<std::uint64_t> expected_;
    std::optional<std::uint64_t> first_;
};

bool
sameBits(const float *a, const float *b, std::size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------
// Chrome trace events
// ---------------------------------------------------------------------

/** Spans of the traced run, written as Chrome trace-event JSON. */
class Tracer
{
  public:
    void
    span(std::string name, std::string parent, unsigned inference,
         Clock::time_point start, Clock::time_point end)
    {
        spans_.push_back({std::move(name), std::move(parent), inference,
                          micros(start), micros(end)});
    }

    /** A fresh id for the spans of one inference. */
    unsigned newInference() { return inferences_++; }

    bool
    write(const std::string &path, const std::string &process,
          const std::string &metadata) const
    {
        std::ofstream f(path);
        f << "{\"displayTimeUnit\": \"ms\",\n\"metadata\": " << metadata
          << ",\n\"traceEvents\": [\n"
          << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
             "\"tid\": 1, \"args\": {\"name\": "
          << jsonString(process) << "}}";
        for (const Span &s : spans_) {
            f << ",\n{\"name\": " << jsonString(s.name)
              << ", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": "
              << jsonNumber(s.start) << ", \"dur\": "
              << jsonNumber(s.end - s.start) << ", \"id\": " << s.inference
              << ", \"args\": {\"inference\": " << s.inference
              << ", \"parent\": "
              << (s.parent.empty() ? "null" : jsonString(s.parent))
              << ", \"start_us\": " << jsonNumber(s.start)
              << ", \"end_us\": " << jsonNumber(s.end) << "}}";
        }
        f << "\n]}\n";
        return static_cast<bool>(f);
    }

  private:
    struct Span
    {
        std::string name;
        std::string parent;
        unsigned inference;
        double start; ///< Microseconds since the tracer was created.
        double end;
    };

    double
    micros(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    unsigned inferences_ = 0;
};

// ---------------------------------------------------------------------
// Execution helpers
// ---------------------------------------------------------------------

/** A compiled plan and the executor that runs it. */
struct Engine
{
    core::NetworkPlan plan;
    std::unique_ptr<core::FunctionalExecutor> exec;
    double compileSeconds = 0.0;
    double ctorSeconds = 0.0;
};

Engine
makeEngine(const dnn::Network &net, const core::NetworkWeights &w,
           unsigned bits, Report &rep)
{
    Engine e;
    const Clock::time_point t0 = Clock::now();
    e.plan = core::NetworkPlan::compile(net, w, bits);
    e.compileSeconds = secondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    e.exec = std::make_unique<core::FunctionalExecutor>();
    e.ctorSeconds = secondsSince(t1);
    rep.check(e.plan.diagnostics().ok(),
              net.name() + ": plan verifier findings");
    return e;
}

/** Set @p e up repeatedly (the previous engine is freed first, so peak
 *  memory holds one plan); returns each set-up's seconds. */
std::vector<double>
repeatedSetup(const dnn::Network &net, const core::NetworkWeights &w,
              unsigned bits, std::optional<Engine> &e, Report &rep)
{
    std::vector<double> s;
    double total = 0.0;
    while (s.size() < kMinSetups
           || (s.size() < kMaxSetups && total < kSetupBudgetSeconds)) {
        e.reset();
        e.emplace(makeEngine(net, w, bits, rep));
        s.push_back(e->compileSeconds + e->ctorSeconds);
        total += s.back();
    }
    return s;
}

/** One inference's host time and simulated activity. */
struct Shot
{
    double seconds = 0.0;
    bce::BceStats delta;
};

/**
 * One image through @p plan. The datapath is parked inside the window,
 * as run_functional_batch parks it, so every inference's delta is the
 * same whatever ran before it.
 */
Shot
runImage(core::FunctionalExecutor &ex, const core::NetworkPlan &plan,
         const dnn::FloatTensor &in, std::vector<float> &out)
{
    const bce::BceStats before = ex.stats();
    const Clock::time_point t0 = Clock::now();
    ex.runInto(plan, in.data(), in.size(), out.data(), out.size());
    ex.parkDatapath();
    const double s = secondsSince(t0);
    return {s, ex.stats() - before};
}

using StepHook = std::function<void(std::size_t, const dnn::LstmState &,
                                    const dnn::LstmState &)>;

/** One whole sequence; @p out receives the final h followed by c. */
Shot
runSequence(core::FunctionalExecutor &ex, const core::NetworkPlan &plan,
            const Sequence &xs, std::vector<float> &out,
            const StepHook &hook = {})
{
    const unsigned hid = plan.layers()[0].layer.lstmHidden;
    dnn::LstmState s{std::vector<float>(hid), std::vector<float>(hid)};
    const bce::BceStats before = ex.stats();
    const Clock::time_point t0 = Clock::now();
    for (std::size_t t = 0; t < xs.size(); ++t) {
        dnn::LstmState next = ex.runLstmStep(plan, 0, xs[t], s);
        if (hook)
            hook(t, s, next);
        s = std::move(next);
    }
    ex.parkDatapath();
    const double sec = secondsSince(t0);
    out.assign(s.h.begin(), s.h.end());
    out.insert(out.end(), s.c.begin(), s.c.end());
    return {sec, ex.stats() - before};
}

/** Seed @p ex's memoized tables at @p bits on a throwaway tiny plan, so
 *  the first timed inference does not pay for them. */
void
warmUp(core::FunctionalExecutor &ex, unsigned bits, std::uint64_t seed)
{
    const dnn::Network tiny = dnn::make_tiny_cnn();
    sim::Rng rng = streamRng(seed, Stream::Weights);
    const core::NetworkPlan plan = core::NetworkPlan::compile(
        tiny, core::random_weights(tiny, rng, kCnnWeightScale), bits);
    std::vector<float> out(plan.outputElems());
    runImage(ex, plan, cnnInput(tiny, seed), out);
}

/**
 * Closed loop: call @p once (which returns its own seconds) until
 * @p budget seconds would be exceeded by one more call, and at least
 * @p minRuns times.
 */
std::vector<double>
closedLoop(double budget, unsigned minRuns,
           const std::function<double()> &once)
{
    std::vector<double> s;
    const Clock::time_point t0 = Clock::now();
    while (s.size() < minRuns
           || secondsSince(t0) + median(s) <= budget)
        s.push_back(once());
    return s;
}

/** Median seconds per unit of @p body(reps), over seven blocks each
 *  long enough (>= 20 ms) to swamp the clock. */
double
perUnitSeconds(double unitsPerRep, const std::function<void(unsigned)> &body)
{
    unsigned reps = 1;
    for (;;) {
        const Clock::time_point t0 = Clock::now();
        body(reps);
        if (secondsSince(t0) >= 0.02 || reps >= (1u << 24))
            break;
        reps *= 2;
    }
    std::vector<double> v;
    for (int b = 0; b < 7; ++b) {
        const Clock::time_point t0 = Clock::now();
        body(reps);
        v.push_back(secondsSince(t0) / (reps * unitsPerRep));
    }
    return median(v);
}

/** A standalone BCE for the kernel micro-benchmarks, built the way
 *  FunctionalExecutor builds its own. */
struct MicroBce
{
    tech::CacheGeometry geom;
    tech::TechParams tech;
    mem::EnergyAccount account;
    mem::Subarray subarray{geom, tech, account};
    bce::Bce engine{subarray, tech, account};

    MicroBce()
    {
        engine.setTier(bce::ExecTier::Tiered);
        engine.loadMultLutImage();
    }
};

/** One image per worker through run_functional_batch; every output must
 *  equal the single-thread output. Returns the wall time. */
double
cnnBatch(const core::NetworkPlan &plan, const dnn::FloatTensor &in,
         const std::vector<float> &want, const bce::BceStats &one,
         unsigned workers, Report &rep)
{
    const std::vector<const dnn::FloatTensor *> inputs(workers, &in);
    core::BatchOptions opts;
    opts.threads = workers;
    const Clock::time_point t0 = Clock::now();
    const core::BatchResult r = core::run_functional_batch(plan, inputs,
                                                           opts);
    const double wall = secondsSince(t0);
    for (const dnn::FloatTensor &o : r.outputs)
        rep.inference(o.size() == want.size()
                      && sameBits(o.data(), want.data(), want.size()));
    rep.check(r.stats.cycles == workers * one.cycles
                  && r.stats.macs == workers * one.macs,
              "batch statistics equal workers x one inference");
    return wall;
}

/** The batch run of the LSTM: one executor per worker on the pool,
 *  each running a whole sequence. */
class LstmBatch
{
  public:
    LstmBatch(const core::NetworkPlan &plan, unsigned workers)
        : plan_(plan), pool_(workers)
    {
        const dnn::Layer &cell = plan.layers()[0].layer;
        const std::vector<float> x(cell.lstmInput);
        const dnn::LstmState zero{std::vector<float>(cell.lstmHidden),
                                  std::vector<float>(cell.lstmHidden)};
        for (unsigned w = 0; w < workers; ++w) {
            execs_.push_back(std::make_unique<core::FunctionalExecutor>());
            execs_.back()->runLstmStep(plan, 0, x, zero);
            execs_.back()->parkDatapath();
        }
    }

    /** One sequence on every worker; returns the wall time. */
    double
    run(const Sequence &xs, OutputCheck &check, Report &rep)
    {
        const std::size_t n = execs_.size();
        std::vector<std::vector<float>> outs(n);
        std::vector<bce::BceStats> deltas(n);
        std::vector<std::function<void()>> tasks;
        for (std::size_t w = 0; w < n; ++w)
            tasks.push_back([&, w] {
                deltas[w] = runSequence(*execs_[w], plan_, xs, outs[w]).delta;
            });
        const Clock::time_point t0 = Clock::now();
        pool_.run(std::move(tasks));
        const double wall = secondsSince(t0);
        for (std::size_t i = 0; i < n; ++i)
            rep.inference(check.judge(outs[i], deltas[i]));
        return wall;
    }

    unsigned workers() const { return pool_.threads(); }

  private:
    const core::NetworkPlan &plan_;
    sim::ThreadPool pool_;
    std::vector<std::unique_ptr<core::FunctionalExecutor>> execs_;
};

/** Batch throughput of @p workers inferences in @p wall seconds, and
 *  its share of @p workers times the single-thread rate. */
void
reportBatch(unsigned workers, double wall, double singleSeconds,
            Report &rep)
{
    const double batch = workers / wall;
    rep.metric("sim.pool.batch_inferences_per_s", batch, "1/s");
    rep.metric("sim.pool.scaling_efficiency",
               batch / (workers / singleSeconds), "ratio");
}

/**
 * Run the warm-up sequence, checking each sampled step against
 * dnn::reference_lstm_step from the same previous state.
 */
void
lstmReferenceCheck(Engine &e, const dnn::Network &net,
                   const core::NetworkWeights &weights, const Sequence &xs,
                   Report &rep)
{
    const dnn::Layer &cell = net.layers()[0];
    double hErr = 0.0;
    double cErr = 0.0;
    std::vector<float> out;
    runSequence(*e.exec, e.plan, xs, out,
                [&](std::size_t t, const dnn::LstmState &prev,
                    const dnn::LstmState &next) {
                    if (t % 15 != 0 && t + 1 != xs.size())
                        return;
                    const dnn::LstmState ref = dnn::reference_lstm_step(
                        cell, xs[t], prev, weights[0].weights,
                        weights[0].bias);
                    for (std::size_t j = 0; j < ref.h.size(); ++j) {
                        hErr = std::max<double>(hErr,
                                                std::abs(ref.h[j] - next.h[j]));
                        cErr = std::max<double>(cErr,
                                                std::abs(ref.c[j] - next.c[j]));
                    }
                });
    // The tolerances of the functional LSTM unit tests.
    rep.check(hErr <= 0.12 && cErr <= 0.15,
              "LSTM state within quantization tolerance of "
              "reference_lstm_step (h err "
                  + std::to_string(hErr) + ", c err "
                  + std::to_string(cErr) + ")");
}

double
modelMs(dnn::Network net, unsigned bits)
{
    net.setUniformPrecision(bits);
    const map::RunResult r = core::BFreeAccelerator().run(net);
    return r.rejected ? std::nan("") : r.secondsPerInference() * 1e3;
}

std::size_t
patchLength(const dnn::Layer &l)
{
    return std::size_t(l.input.c) * l.kernelH * l.kernelW;
}

/** Layers reported as one group: "pool", "relu", "softmax", ... */
std::string
groupName(dnn::LayerKind k)
{
    switch (k) {
      case dnn::LayerKind::MaxPool:
      case dnn::LayerKind::AvgPool:
        return "pool";
      case dnn::LayerKind::Relu:
        return "relu";
      case dnn::LayerKind::Sigmoid:
        return "sigmoid";
      case dnn::LayerKind::Tanh:
        return "tanh";
      case dnn::LayerKind::Softmax:
        return "softmax";
      default:
        return "";
    }
}

bool
reportedAlone(const dnn::Layer &l)
{
    return l.kind == dnn::LayerKind::Conv || l.kind == dnn::LayerKind::Fc;
}

// ---------------------------------------------------------------------
// Metric names
// ---------------------------------------------------------------------

std::vector<std::string>
endToEndNames()
{
    return {"inferences_per_s", "setup_s", "peak_rss_mb",
            "sim_cycles_per_inference", "sim_uj_per_inference"};
}

std::vector<std::string>
perLayerNames(const Workload &w)
{
    std::vector<std::string> names;
    std::set<std::string> groups;
    std::set<std::size_t> lens;
    const dnn::Network cnn = cnnNetwork(w);
    for (const dnn::Layer &l : cnn.layers()) {
        if (reportedAlone(l)) {
            for (const char *m : {"host_ms", "gmacs_per_s", "sim_cycles"})
                names.push_back("core." + l.name + "." + m);
        } else if (groups.insert(groupName(l.kind)).second) {
            names.push_back("core." + groupName(l.kind) + ".host_ms");
            names.push_back("core." + groupName(l.kind) + ".sim_cycles");
        }
    }
    names.push_back("core.unattributed_ms");
    for (const dnn::Layer &l : cnn.layers())
        if (l.kind == dnn::LayerKind::Conv
            && lens.insert(patchLength(l)).second)
            names.push_back("bce.dot_span.len"
                            + std::to_string(patchLength(l))
                            + ".ns_per_call");
    for (const char *n :
         {"core.lstm_step.host_us", "core.lstm_step.sim_cycles",
          "core.qmatmul_frozen.m1.host_us", "bce.matmul_tile.m1.gmacs_per_s",
          "lut.pwl.ns_per_eval", "core.plan_compile_s",
          "core.executor_ctor_ms", "sim.pool.batch_inferences_per_s",
          "sim.pool.scaling_efficiency",
          "model.cnn.ms_per_inference", "model.lstm.ms_per_inference"})
        names.push_back(n);
    return names;
}

// ---------------------------------------------------------------------
// Host record
// ---------------------------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12];
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    std::string s(reinterpret_cast<const char *>(regs), sizeof regs);
    s = s.c_str();
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
#else
    return "unknown";
#endif
}

std::string
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

bool
debugBuild()
{
#ifdef NDEBUG
    return std::string(PERFBENCH_BUILD_TYPE) == "Debug";
#else
    return true;
#endif
}

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool listMetrics = false;
    std::optional<std::uint64_t> expect;
    std::string commit = "unknown";
    std::string traceDir = ".";
};

/** Free-form facts for the info line, as (key, JSON value) pairs. */
using Facts = std::vector<std::pair<std::string, std::string>>;

std::string
object(const Facts &f)
{
    std::string s = "{";
    for (std::size_t i = 0; i < f.size(); ++i)
        s += (i ? ", " : "") + jsonString(f[i].first) + ": " + f[i].second;
    return s + "}";
}

/** The closed loop: inferences back to back on one warm executor for
 *  --seconds; reports the end-to-end metrics. */
void
endToEnd(const Options &opt, Report &rep, Facts &facts)
{
    const Workload &w = *opt.workload;
    const dnn::Network net = w.lstm ? lstmNetwork(w) : cnnNetwork(w);
    sim::Rng wr = streamRng(opt.seed, Stream::Weights);
    const core::NetworkWeights weights = core::random_weights(
        net, wr, w.lstm ? kLstmWeightScale : kCnnWeightScale);

    std::optional<Engine> e;
    const std::vector<double> setups =
        repeatedSetup(net, weights, w.bits, e, rep);
    core::FunctionalExecutor &ex = *e->exec;

    const dnn::FloatTensor image =
        w.lstm ? dnn::FloatTensor({1}) : cnnInput(net, opt.seed);
    const Sequence xs = w.lstm ? lstmInput(net, opt.seed) : Sequence{};
    std::vector<float> out(w.lstm ? 0 : e->plan.outputElems());
    std::function<Shot()> infer;
    if (w.lstm) {
        // The reference-checked sequence doubles as the warm-up.
        lstmReferenceCheck(*e, net, weights, xs, rep);
        infer = [&] { return runSequence(ex, e->plan, xs, out); };
    } else {
        warmUp(ex, w.bits, opt.seed);
        infer = [&] { return runImage(ex, e->plan, image, out); };
    }

    OutputCheck check(opt.expect);
    std::optional<Shot> one;
    const std::vector<double> single =
        closedLoop(opt.seconds, kMinInferences, [&] {
            const Shot s = infer();
            rep.inference(check.judge(out, s.delta));
            if (!one)
                one = s;
            return s.seconds;
        });

    rep.metric("inferences_per_s", 1.0 / median(single), "1/s");
    rep.metric("setup_s", median(setups), "s");
    rep.metric("sim_cycles_per_inference",
               static_cast<double>(one->delta.cycles), "cycles");
    rep.metric("sim_uj_per_inference", datapathMicrojoules(one->delta),
               "uJ");
    facts.emplace_back("digest", jsonString(hex(*check.first())));
    facts.emplace_back("inference_seconds", jsonArray(single));
    facts.emplace_back("setup_seconds", jsonArray(setups));
}

/** Compile each layer of @p net as a one-layer plan. Moves the layer
 *  weights out of @p weights. */
std::vector<core::NetworkPlan>
oneLayerPlans(const dnn::Network &net, core::NetworkWeights &weights,
              unsigned bits)
{
    std::vector<core::NetworkPlan> plans;
    for (std::size_t i = 0; i < net.layers().size(); ++i) {
        const dnn::Layer &l = net.layers()[i];
        dnn::Network one(net.name() + "/" + l.name, l.input);
        one.add(l);
        core::NetworkWeights w;
        w.push_back(std::move(weights[i]));
        plans.push_back(core::NetworkPlan::compile(one, w, bits));
    }
    return plans;
}

/** The traced profile of the CNN: one whole image, then the same image
 *  layer by layer through one-layer plans, then the span kernel. */
void
profileCnn(const Options &opt, bool own, Report &rep, Facts &facts,
           Tracer &tracer)
{
    const Workload &w = *opt.workload;
    const unsigned bits = cnnBits(w);
    const dnn::Network net = cnnNetwork(w);
    sim::Rng wr = streamRng(opt.seed, Stream::Weights);
    core::NetworkWeights weights =
        core::random_weights(net, wr, kCnnWeightScale);
    const dnn::FloatTensor input = cnnInput(net, opt.seed);

    Engine e = makeEngine(net, weights, bits, rep);
    core::FunctionalExecutor &ex = *e.exec;
    warmUp(ex, bits, opt.seed);

    OutputCheck check(own ? opt.expect : std::nullopt);
    std::vector<float> whole(e.plan.outputElems());
    const Clock::time_point w0 = Clock::now();
    const Shot one = runImage(ex, e.plan, input, whole);
    tracer.span(net.name() + " image", "", tracer.newInference(), w0,
                Clock::now());
    rep.inference(check.judge(whole, one.delta));

    // The same image, layer by layer, on the same warm executor.
    const std::vector<core::NetworkPlan> plans =
        oneLayerPlans(net, weights, bits);
    std::vector<std::vector<float>> acts(plans.size() + 1);
    acts[0].assign(input.data(), input.data() + input.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        rep.check(plans[i].inputElems() == acts[i].size(),
                  net.layers()[i].name + ": one-layer plan input size");
        acts[i + 1].assign(plans[i].outputElems(), 0.0f);
    }
    std::vector<double> layerMs(plans.size());
    std::vector<std::uint64_t> layerCycles(plans.size());
    const std::string parent = net.name() + " layer by layer";
    const unsigned chainId = tracer.newInference();
    const Clock::time_point c0 = Clock::now();
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const bce::BceStats before = ex.stats();
        const Clock::time_point t0 = Clock::now();
        ex.runInto(plans[i], acts[i].data(), acts[i].size(),
                   acts[i + 1].data(), acts[i + 1].size());
        // The return-to-conv switch that ends a whole inference falls
        // in the last layer's window.
        if (i + 1 == plans.size())
            ex.parkDatapath();
        const Clock::time_point t1 = Clock::now();
        layerMs[i] = std::chrono::duration<double, std::milli>(t1 - t0)
                         .count();
        layerCycles[i] = (ex.stats() - before).cycles;
        tracer.span(net.layers()[i].name, parent, chainId, t0, t1);
    }
    tracer.span(parent, "", chainId, c0, Clock::now());
    const std::vector<float> &chainOut = acts.back();
    rep.inference(chainOut.size() == whole.size()
                  && sameBits(chainOut.data(), whole.data(), whole.size()));

    double sumMs = 0.0;
    std::uint64_t sumCycles = 0;
    std::vector<std::pair<std::string, std::pair<double, std::uint64_t>>>
        grouped;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const dnn::Layer &l = net.layers()[i];
        sumMs += layerMs[i];
        sumCycles += layerCycles[i];
        if (reportedAlone(l)) {
            rep.metric("core." + l.name + ".host_ms", layerMs[i], "ms");
            rep.metric("core." + l.name + ".gmacs_per_s",
                       l.macs() / (layerMs[i] * 1e6), "GMAC/s");
            rep.metric("core." + l.name + ".sim_cycles",
                       static_cast<double>(layerCycles[i]), "cycles");
            continue;
        }
        const std::string g = groupName(l.kind);
        auto it = std::find_if(grouped.begin(), grouped.end(),
                               [&](const auto &p) { return p.first == g; });
        if (it == grouped.end())
            it = grouped.insert(grouped.end(), {g, {0.0, 0}});
        it->second.first += layerMs[i];
        it->second.second += layerCycles[i];
    }
    for (const auto &[g, v] : grouped) {
        rep.metric("core." + g + ".host_ms", v.first, "ms");
        rep.metric("core." + g + ".sim_cycles",
                   static_cast<double>(v.second), "cycles");
    }
    rep.metric("core.unattributed_ms", one.seconds * 1e3 - sumMs, "ms");
    rep.check(sumCycles == one.delta.cycles,
              net.name() + ": per-layer sim_cycles sum ("
                  + std::to_string(sumCycles)
                  + ") equals sim_cycles_per_inference ("
                  + std::to_string(one.delta.cycles) + ")");

    // Bce::dotProductSpan on the layer's real patches and filters.
    MicroBce m;
    std::set<std::size_t> lens;
    std::int64_t sink = 0;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const dnn::Layer &l = net.layers()[i];
        if (l.kind != dnn::LayerKind::Conv
            || !lens.insert(patchLength(l)).second)
            continue;
        const std::size_t len = patchLength(l);
        const dnn::SymQuant qi =
            dnn::choose_sym(acts[i].data(), acts[i].size(), bits);
        std::vector<std::int8_t> qin(acts[i].size());
        dnn::quantize_span(qi, acts[i].data(), qin.size(), qin.data());
        const dnn::FeatureShape o = l.outputShape();
        constexpr unsigned kPatches = 16;
        constexpr std::size_t kSlack = 64;
        std::vector<std::int8_t> patches(kPatches * len + kSlack);
        for (unsigned p = 0; p < kPatches; ++p) {
            const std::size_t pos = std::size_t(p) * o.h * o.w / kPatches;
            dnn::im2col_patch_i8(l, qin.data(), pos / o.w, pos % o.w,
                                 &patches[p * len]);
        }
        const std::vector<std::int8_t> &filters = plans[i].layers()[0]
                                                      .frozen[0]
                                                      .q8;
        const unsigned nf = std::min(l.outChannels, 16u);
        const double s = perUnitSeconds(kPatches * nf, [&](unsigned reps) {
            for (unsigned r = 0; r < reps; ++r)
                for (unsigned p = 0; p < kPatches; ++p)
                    for (unsigned f = 0; f < nf; ++f)
                        sink += m.engine.dotProductSpan(
                            filters.data() + f * len, &patches[p * len],
                            len, bits);
        });
        rep.metric("bce.dot_span.len" + std::to_string(len) + ".ns_per_call",
                   s * 1e9, "ns");
    }
    facts.emplace_back("dot_span_sink", std::to_string(sink));

    const double modelMsCnn = modelMs(net, bits);
    rep.metric("model.cnn.ms_per_inference", modelMsCnn, "ms");
    facts.emplace_back(
        "model_cnn",
        object({{"network", jsonString(net.name())},
                {"bits", std::to_string(bits)},
                {"ms", jsonNumber(modelMsCnn)},
                {"paper_ms", "null"},
                {"status", jsonString("unvalidated: EXPERIMENTS.md holds "
                                      "no paper latency for this "
                                      "network alone")}}));

    if (!own)
        return;
    facts.emplace_back("digest", jsonString(hex(*check.first())));
    rep.metric("core.plan_compile_s", e.compileSeconds, "s");
    rep.metric("core.executor_ctor_ms", e.ctorSeconds * 1e3, "ms");
    const unsigned workers = batchWorkers();
    reportBatch(workers,
                cnnBatch(e.plan, input, whole, one.delta, workers, rep),
                one.seconds, rep);
}

/** The traced profile of the LSTM: one whole sequence, one traced step
 *  by step, then the matvec, tile and PWL kernels on its real operands. */
void
profileLstm(const Options &opt, bool own, Report &rep, Facts &facts,
            Tracer &tracer)
{
    const Workload &w = *opt.workload;
    const unsigned bits = lstmBits(w);
    const dnn::Network net = lstmNetwork(w);
    sim::Rng wr = streamRng(opt.seed, Stream::Weights);
    const core::NetworkWeights weights =
        core::random_weights(net, wr, kLstmWeightScale);
    const Sequence xs = lstmInput(net, opt.seed);

    Engine e = makeEngine(net, weights, bits, rep);
    core::FunctionalExecutor &ex = *e.exec;
    lstmReferenceCheck(e, net, weights, xs, rep);

    OutputCheck check(own ? opt.expect : std::nullopt);
    std::vector<float> out;
    const Clock::time_point w0 = Clock::now();
    const Shot one = runSequence(ex, e.plan, xs, out);
    tracer.span(net.name() + " sequence", "", tracer.newInference(), w0,
                Clock::now());
    rep.inference(check.judge(out, one.delta));

    // One sequence step by step.
    const dnn::Layer &cell = net.layers()[0];
    const std::string parent = net.name() + " step by step";
    const unsigned seqId = tracer.newInference();
    dnn::LstmState s{std::vector<float>(cell.lstmHidden),
                     std::vector<float>(cell.lstmHidden)};
    std::vector<double> stepUs;
    std::uint64_t stepCycles = 0;
    const bce::BceStats seqBefore = ex.stats();
    const Clock::time_point s0 = Clock::now();
    for (std::size_t t = 0; t < xs.size(); ++t) {
        const std::uint64_t before = ex.stats().cycles;
        const Clock::time_point t0 = Clock::now();
        s = ex.runLstmStep(e.plan, 0, xs[t], s);
        if (t + 1 == xs.size())
            ex.parkDatapath();
        const Clock::time_point t1 = Clock::now();
        stepUs.push_back(
            std::chrono::duration<double, std::micro>(t1 - t0).count());
        stepCycles += ex.stats().cycles - before;
        tracer.span("step " + std::to_string(t), parent, seqId, t0, t1);
    }
    tracer.span(parent, "", seqId, s0, Clock::now());
    std::vector<float> stepped(s.h.begin(), s.h.end());
    stepped.insert(stepped.end(), s.c.begin(), s.c.end());
    rep.inference(check.judge(stepped, ex.stats() - seqBefore));
    rep.metric("core.lstm_step.host_us", median(stepUs), "us");
    rep.metric("core.lstm_step.sim_cycles", static_cast<double>(stepCycles),
               "cycles");
    rep.check(stepCycles == one.delta.cycles,
              net.name() + ": per-step sim_cycles sum ("
                  + std::to_string(stepCycles)
                  + ") equals sim_cycles_per_inference ("
                  + std::to_string(one.delta.cycles) + ")");

    // The gate matvec on the last step's real [x, h] operands.
    const std::size_t cols = cell.lstmInput + cell.lstmHidden;
    const std::size_t n = std::size_t(4) * cell.lstmHidden;
    const dnn::QuantizedWeights &gates = e.plan.layers()[0].frozen[0];
    dnn::FloatTensor xh({std::size_t(1), cols});
    std::copy(xs.back().begin(), xs.back().end(), xh.data());
    std::copy(s.h.begin(), s.h.end(), xh.data() + cell.lstmInput);
    dnn::FloatTensor gateOut({std::size_t(1), n});
    const double qm = perUnitSeconds(1, [&](unsigned reps) {
        for (unsigned r = 0; r < reps; ++r)
            gateOut = ex.qMatmulFrozen(xh, gates, cols, n);
    });
    ex.parkDatapath();
    rep.metric("core.qmatmul_frozen.m1.host_us", qm * 1e6, "us");

    MicroBce m;
    m.engine.setMode(bce::BceMode::Matmul);
    const dnn::SymQuant qa = dnn::choose_sym(xh.data(), cols, bits);
    std::vector<std::int8_t> a(cols + 64);
    dnn::quantize_span(qa, xh.data(), cols, a.data());
    std::vector<std::int32_t> acc(n);
    const double tile = perUnitSeconds(1, [&](unsigned reps) {
        for (unsigned r = 0; r < reps; ++r) {
            std::fill(acc.begin(), acc.end(), 0);
            m.engine.matmulTile(a.data(), gates.q8.data(), acc.data(), 1,
                                cols, n, bits);
        }
    });
    rep.metric("bce.matmul_tile.m1.gmacs_per_s",
               static_cast<double>(cols * n) / tile / 1e9, "GMAC/s");

    const lut::PwlTable sigmoid = lut::make_sigmoid_table();
    std::vector<double> pre(n);
    for (std::size_t j = 0; j < n; ++j)
        pre[j] = gateOut.data()[j] + e.plan.layers()[0].bias[j];
    double sink = 0.0;
    const double pwl =
        perUnitSeconds(static_cast<double>(n), [&](unsigned reps) {
            for (unsigned r = 0; r < reps; ++r)
                for (const double x : pre)
                    sink += m.engine.evaluatePwl(sigmoid, x);
        });
    rep.metric("lut.pwl.ns_per_eval", pwl * 1e9, "ns");
    facts.emplace_back("pwl_sink", jsonNumber(sink));

    const double modelMsLstm = modelMs(net, bits);
    rep.metric("model.lstm.ms_per_inference", modelMsLstm, "ms");
    const bool paperShape = !w.smoke && bits == 8;
    facts.emplace_back(
        "model_lstm",
        object({{"network", jsonString(net.name())},
                {"bits", std::to_string(bits)},
                {"ms", jsonNumber(modelMsLstm)},
                {"paper_ms", paperShape ? jsonNumber(kPaperLstmMs) : "null"},
                {"error_pct",
                 paperShape ? jsonNumber((modelMsLstm / kPaperLstmMs - 1.0)
                                         * 100.0)
                            : "null"}}));

    if (!own)
        return;
    facts.emplace_back("digest", jsonString(hex(*check.first())));
    rep.metric("core.plan_compile_s", e.compileSeconds, "s");
    rep.metric("core.executor_ctor_ms", e.ctorSeconds * 1e3, "ms");
    LstmBatch pool(e.plan, batchWorkers());
    reportBatch(pool.workers(), pool.run(xs, check, rep), one.seconds, rep);
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench_driver: " << why
              << "\nusage: perfbench_driver --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--expect HEX] "
                 "[--commit SHA] [--trace-dir DIR] [--list-metrics]\n"
                 "workloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            if (a == "--list-metrics") {
                opt.listMetrics = true;
                continue;
            }
            if (i + 1 >= argc)
                return usage("missing value for " + a);
            const std::string v = argv[++i];
            if (a == "--workload") {
                for (const Workload &w : kWorkloads)
                    if (v == w.name)
                        opt.workload = &w;
                if (!opt.workload)
                    return usage("unknown workload '" + v + "'");
            } else if (a == "--seed") {
                opt.seed = std::stoull(v);
            } else if (a == "--seconds") {
                opt.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1")
                    return usage("--trace takes 0 or 1");
                opt.trace = v == "1";
            } else if (a == "--expect") {
                opt.expect = std::stoull(v, nullptr, 16);
            } else if (a == "--commit") {
                opt.commit = v;
            } else if (a == "--trace-dir") {
                opt.traceDir = v;
            } else {
                return usage("unknown option " + a);
            }
        }
    } catch (const std::exception &) {
        return usage("malformed number");
    }
    if (!opt.workload)
        return usage("--workload is required");
    if (!(opt.seconds > 0.0))
        return usage("--seconds must be positive");

    const Workload &w = *opt.workload;
    const std::vector<std::string> expected =
        opt.trace ? perLayerNames(w) : endToEndNames();
    if (opt.listMetrics) {
        for (const std::string &n : expected)
            std::cout << n << "\n";
        return 0;
    }

    Facts host = {
        {"cpu", jsonString(cpuModel())},
        {"simd", jsonString(sim::simd_level_name(sim::active_simd_level()))},
        {"nproc", std::to_string(onlineCpus())},
        {"compiler", jsonString(compilerName())},
        {"build_type", jsonString(PERFBENCH_BUILD_TYPE)},
        {"debug_build", debugBuild() ? "true" : "false"},
        {"commit", jsonString(opt.commit)}};
    if (debugBuild())
        std::cerr << "perfbench: WARNING: Debug build; timings are not "
                     "representative\n";

    Report rep;
    Facts facts = {{"workload", jsonString(w.name)},
                   {"seed", std::to_string(opt.seed)},
                   {"trace", opt.trace ? "1" : "0"},
                   {"host", object(host)},
                   {"batch_workers", std::to_string(batchWorkers())},
                   {"expected_digest",
                    opt.expect ? jsonString(hex(*opt.expect)) : "null"}};
    Tracer tracer;
    if (opt.trace) {
        profileCnn(opt, !w.lstm, rep, facts, tracer);
        profileLstm(opt, w.lstm, rep, facts, tracer);
    } else {
        endToEnd(opt, rep, facts);
    }
    if (!opt.trace) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        rep.metric("peak_rss_mb", ru.ru_maxrss / 1024.0, "MB");
    }

    std::set<std::string> emitted;
    for (const Metric &m : rep.metrics) {
        rep.check(emitted.insert(m.name).second,
                  "metric " + m.name + " emitted twice");
        rep.check(std::isfinite(m.value), "metric " + m.name + " is finite");
    }
    rep.check(emitted == std::set<std::string>(expected.begin(),
                                               expected.end()),
              "emitted metrics match the metric list");

    if (opt.trace) {
        const std::string path = opt.traceDir + "/trace-" + w.name
                                 + "-seed" + std::to_string(opt.seed)
                                 + ".json";
        rep.check(tracer.write(path, std::string("perfbench ") + w.name,
                               object(facts)),
                  "trace written to " + path);
        facts.emplace_back("trace_file", jsonString(path));
    }

    std::string problems = "[";
    for (std::size_t i = 0; i < rep.problems.size(); ++i)
        problems += (i ? ", " : "") + jsonString(rep.problems[i]);
    facts.emplace_back("problems", problems + "]");
    std::cout << "{\"perfbench\": " << object(facts) << "}\n";

    std::cout << "{\"correct\": " << (rep.correct() ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
        const Metric &m = rep.metrics[i];
        std::cout << (i ? ", " : "") << jsonString(m.name)
                  << ": {\"value\": " << jsonNumber(m.value)
                  << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
    return 0;
}
