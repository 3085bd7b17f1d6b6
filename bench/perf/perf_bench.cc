/**
 * @file
 * perf_bench: the repository benchmark. README.md in this directory
 * describes the workloads, the metrics and the run protocol.
 *
 *   perf_bench --workload NAME|all --seed N --seconds S --trace 0|1
 *              [--out DIR] [--weights PATH] [--sha SHA]
 *   perf_bench --prepare [--weights PATH]
 *   perf_bench --smoke [--benchmark-json PATH] [--out DIR]
 *              [--weights PATH]
 *
 * Each workload runs in a child process of its own, so its peak RSS
 * is that child's. Every metric is printed as a `name value unit`
 * line; the last stdout line is one JSON object with `correct`,
 * `attempted`, `failed` and the mode's metrics (end-to-end untraced,
 * per-layer traced). Exit status: 0 when every output check passed,
 * 1 when one failed, 2 on a usage error.
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <span>
#include <sstream>

#include "core/rng.hh"
#include "json.hh"
#include "perf.hh"
#include "sim/pretrained.hh"

namespace redeye::perf {

// ---- Helpers declared in perf.hh ----

double
Result::get(const std::string &name) const
{
    for (const Metric &m : metrics) {
        if (m.name == name)
            return m.value;
    }
    return std::numeric_limits<double>::quiet_NaN();
}

void
Result::absorb(const Result &other, const std::string &note_prefix)
{
    for (const Metric &m : other.metrics) {
        if (std::isnan(get(m.name)))
            metrics.push_back(m);
    }
    for (const Metric &m : other.notes)
        notes.push_back({note_prefix + m.name, m.value, m.unit});
    attempted += other.attempted;
    failed += other.failed;
    for (const std::string &v : other.violations)
        violations.push_back(note_prefix + v);
}

std::uint64_t
seedFor(std::uint64_t seed, std::uint64_t salt)
{
    return redeye::splitmix64(seed * 0x9e3779b97f4a7c15ULL ^ salt);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto s = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) / 1e6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
        }
    }
    return cpus;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (frac == 0.0)
        return v[lo];
    if (std::isinf(v[lo + 1]))
        return kInf; // between a served frame and a lost one
    return v[lo] + frac * (v[lo + 1] - v[lo]);
}

namespace {

// ---- The contract: workloads and metrics (mirrors BENCHMARK.json) ----

struct WorkloadDef {
    const char *name;
    bool stream;
};

constexpr WorkloadDef kWorkloads[] = {
    {"analog_stream", true},
    {"bypass_stream", true},
    {"fleet_scale", false},
};

struct MetricDef {
    const char *name;
    const char *unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"cpu_ms_per_frame", "ms"},
    {"quality_pct", "%"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"stream.gen_late_ms_p99", "ms"},
    {"stream.wait_sensor_ms_p50", "ms"},
    {"stream.wait_redeye_ms_p50", "ms"},
    {"stream.wait_host_ms_p50", "ms"},
    {"stream.frame_self_ms_p50", "ms"},
    {"stream.plan_cache_hit_pct", "%"},
    {"noise.sensor_busy_ms_p50", "ms"},
    {"redeye.stage_busy_ms_p50", "ms"},
    {"redeye.stage_busy_ms_p90", "ms"},
    {"redeye.stage_util_pct", "%"},
    {"redeye.device_ctor_ms", "ms"},
    {"redeye.conv1_ms", "ms"},
    {"redeye.pool1_ms", "ms"},
    {"redeye.adc_ms", "ms"},
    {"redeye.device_run_ms", "ms"},
    {"redeye.conv1_mmac_per_s", "MMAC/s"},
    {"nn.host_busy_ms_p50", "ms"},
    {"nn.host_busy_ms_p99", "ms"},
    {"nn.host_util_pct", "%"},
    {"nn.full.conv1_ms", "ms"},
    {"nn.full.pool1_ms", "ms"},
    {"nn.full.conv2_ms", "ms"},
    {"nn.full.pool2_ms", "ms"},
    {"nn.full.inception_a_ms", "ms"},
    {"nn.full.inception_b_ms", "ms"},
    {"nn.full.head_ms", "ms"},
    {"nn.tail_ms", "ms"},
    {"tensor.gemm_gflops.conv1_5x5", "GFLOP/s"},
    {"tensor.gemm_gflops.conv2_3x3", "GFLOP/s"},
    {"tensor.gemm_gflops.inception_a_3x3", "GFLOP/s"},
    {"tensor.gemm_gflops.inception_b_3x3", "GFLOP/s"},
    {"tensor.gemm_gflops.classifier_fc_b16", "GFLOP/s"},
    {"process.cpu_ms_per_frame", "ms"},
    {"process.cpu_util_pct", "%"},
    {"model.system_mj_per_frame", "mJ"},
    {"model.analog_uj_per_frame", "uJ"},
    {"fleet.ctor_ms", "ms"},
    {"fleet.run_ms_p50", "ms"},
    {"fleet.run_ms_iqr", "ms"},
    {"fleet.host_ns_per_frame", "ns"},
    {"fleet.offered", "count"},
    {"fleet.completed", "count"},
    {"fleet.shed", "count"},
    {"fleet.program_cache_hit_pct", "%"},
    // Virtual-time outputs of the simulation, not host time.
    {"fleet.model.interactive_p99_ms", "sim_ms"},
    {"fleet.model.interactive_slo_pct", "%"},
    {"fleet.model.host_util_pct", "%"},
    {"fleet.model.makespan_s", "sim_s"},
    {"trace.overhead_pct", "%"},
};

constexpr int kSchemaVersion = 1;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 18;

struct Options {
    std::string workload = "all";
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    bool smoke = false;
    bool prepare = false;
    std::string out = ".";
    std::string weights = "redeye_mini_weights.bin";
    std::string benchmarkJson = "BENCHMARK.json";
    std::string sha = "unknown";
};

const WorkloadDef *
findWorkload(const std::string &name)
{
    for (const WorkloadDef &w : kWorkloads) {
        if (name == w.name)
            return &w;
    }
    return nullptr;
}

bool
parseOptions(int argc, char **argv, Options &opt, std::string &error)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                opt.workload = value();
                if (opt.workload != "all" && !findWorkload(opt.workload))
                    throw std::invalid_argument("unknown workload '" +
                                                opt.workload + "'");
            } else if (arg == "--seed") {
                opt.seed = std::stoull(value(), nullptr, 0);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(value());
                if (!(opt.seconds > 0.0 && opt.seconds <= 3600.0))
                    throw std::invalid_argument("--seconds out of range");
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1")
                    throw std::invalid_argument("--trace takes 0 or 1");
                opt.trace = v == "1";
            } else if (arg == "--smoke") {
                opt.smoke = true;
            } else if (arg == "--prepare") {
                opt.prepare = true;
            } else if (arg == "--out") {
                opt.out = value();
            } else if (arg == "--weights") {
                opt.weights = value();
            } else if (arg == "--benchmark-json") {
                opt.benchmarkJson = value();
            } else if (arg == "--sha") {
                opt.sha = value();
            } else {
                throw std::invalid_argument("unknown flag '" + arg + "'");
            }
        } catch (const std::exception &e) {
            error = e.what();
            return false;
        }
    }
    return true;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            const std::size_t start = line.find_first_not_of(' ', colon + 1);
            return start == std::string::npos ? "unknown"
                                              : line.substr(start);
        }
    }
    return "unknown";
}

std::optional<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---- Results as JSON ----

/** @p list as a JSON array, each entry preceded by @p indent. */
std::string
metricsJson(const std::vector<Metric> &list, const std::string &indent = "")
{
    std::string s = "[";
    for (std::size_t i = 0; i < list.size(); ++i) {
        s += (i ? "," : "") + indent + "{\"name\": " + quote(list[i].name) +
             ", \"value\": " + number(list[i].value) +
             ", \"unit\": " + quote(list[i].unit) + "}";
    }
    return s + "]";
}

std::string
stringsJson(const std::vector<std::string> &list)
{
    std::string s = "[";
    for (std::size_t i = 0; i < list.size(); ++i)
        s += (i ? ", " : "") + quote(list[i]);
    return s + "]";
}

/** What a child sends its parent. */
std::string
resultJson(const Result &r)
{
    return "{\"metrics\": " + metricsJson(r.metrics) +
           ", \"notes\": " + metricsJson(r.notes) +
           ", \"attempted\": " + std::to_string(r.attempted) +
           ", \"failed\": " + std::to_string(r.failed) +
           ", \"violations\": " + stringsJson(r.violations) + "}";
}

Result
resultFromJson(const Json &j)
{
    Result r;
    const auto metrics = [](const Json *list, std::vector<Metric> &out) {
        if (!list)
            return;
        for (const Json &m : list->items) {
            const Json *name = m.find("name");
            const Json *value = m.find("value");
            const Json *unit = m.find("unit");
            out.push_back({name ? name->string : "",
                           value && value->kind == Json::Kind::Number
                               ? value->number
                               : std::numeric_limits<double>::quiet_NaN(),
                           unit ? unit->string : ""});
        }
    };
    metrics(j.find("metrics"), r.metrics);
    metrics(j.find("notes"), r.notes);
    if (const Json *a = j.find("attempted"))
        r.attempted = static_cast<std::uint64_t>(a->number);
    if (const Json *f = j.find("failed"))
        r.failed = static_cast<std::uint64_t>(f->number);
    if (const Json *v = j.find("violations")) {
        for (const Json &s : v->items)
            r.violations.push_back(s.string);
    }
    return r;
}

/** What the parent learns about a finished child. */
struct Child {
    std::string output; ///< what the child wrote to the pipe
    bool exitedCleanly = false;
    std::string how;    ///< exit description when not clean
    double wallS = 0.0;
    double cpuS = 0.0;
    double peakRssMb = 0.0;
};

/**
 * Run @p body in a forked child and collect the string it returns,
 * its resource usage and how it ended. The parent process never runs
 * library code, so it holds no threads when it forks.
 */
Child
inChild(const std::function<std::string()> &body)
{
    Child c;
    int fds[2];
    if (pipe(fds) != 0) {
        c.how = std::string("pipe: ") + std::strerror(errno);
        return c;
    }
    std::cout.flush();
    std::cerr.flush();
    const std::int64_t t0 = nowNs();
    const pid_t pid = fork();
    if (pid < 0) {
        c.how = std::string("fork: ") + std::strerror(errno);
        close(fds[0]);
        close(fds[1]);
        return c;
    }
    if (pid == 0) {
        close(fds[0]);
        std::string text;
        int code = 0;
        try {
            text = body();
        } catch (const std::exception &e) {
            std::cerr << "perf_bench: " << e.what() << "\n";
            code = 1;
        }
        for (std::size_t done = 0; done < text.size();) {
            const ssize_t n =
                write(fds[1], text.data() + done, text.size() - done);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0) {
                code = 1;
                break;
            }
            done += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        std::cout.flush();
        std::cerr.flush();
        _exit(code);
    }
    close(fds[1]);
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        c.output.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    c.wallS = static_cast<double>(nowNs() - t0) / 1e9;
    c.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec +
                                 ru.ru_stime.tv_usec) /
                 1e6;
    c.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
        c.exitedCleanly = true;
    else if (WIFSIGNALED(status))
        c.how = "child killed by signal " + std::to_string(WTERMSIG(status));
    else
        c.how = "child exited with status " +
                std::to_string(WEXITSTATUS(status));
    return c;
}

/** Train and cache the weights (in a child); wall seconds or -1. */
double
prepareWeights(const std::string &path)
{
    std::cerr << "perf_bench: preparing trained weights in " << path
              << "\n";
    const Child c = inChild([&] {
        sim::pretrainedMiniGoogLeNet(path, /*verbose=*/true);
        return std::string("{}");
    });
    if (!c.exitedCleanly || !std::filesystem::exists(path)) {
        std::cerr << "perf_bench: preparing weights failed: " << c.how
                  << "\n";
        return -1.0;
    }
    return c.wallS;
}

// ---- One workload ----

struct Outcome {
    std::string workload;
    bool traced = false;
    Result result;          ///< metrics in contract order, units set
    double wallS = 0.0;
    double cpuS = 0.0;
    std::string tracePath;  ///< traced runs

    bool
    correct() const
    {
        return result.violations.empty() && result.failed == 0;
    }
};

/** The child's work: the workload, then (traced) the layer profile. */
std::string
workloadBody(const WorkloadDef &w, RunSpec spec, bool traced,
             const std::string &trace_path)
{
    std::unique_ptr<SpanBuffer> spans;
    if (traced) {
        spans = std::make_unique<SpanBuffer>(kSpanCapacity);
        spec.spans = spans.get();
    }
    Result r = w.stream ? runStream(w.name, spec) : runFleet(w.name, spec);
    if (!traced)
        return resultJson(r);

    // Every traced run reports every layer: the family this workload
    // does not exercise comes from a short companion run of it.
    RunSpec companion = spec;
    if (w.stream) {
        companion.fleetScale = spec.fleetScale / 10.0;
        companion.seconds = 0.0; // minimum reps
        r.absorb(runFleet("fleet_scale", companion),
                 "companion_fleet_scale.");
    } else {
        companion.seconds = std::min(spec.seconds, 3.0);
        r.absorb(runStream("bypass_stream", companion),
                 "companion_bypass_stream.");
    }
    runLayerProbes(spec, r);
    if (spans->dropped())
        r.violate("span buffer full: " + std::to_string(spans->dropped()) +
                  " spans dropped");
    if (!spans->writeChromeTrace(trace_path))
        r.violate("cannot write " + trace_path);
    return resultJson(r);
}

/**
 * Put the child's metrics in contract order with their units; a
 * missing, unknown or non-finite metric is a violation.
 */
void
orderMetrics(Result &r, bool traced, double peak_rss_mb)
{
    if (!traced)
        r.set("peak_rss_mb", peak_rss_mb);
    std::vector<Metric> ordered;
    const std::span<const MetricDef> defs =
        traced ? std::span<const MetricDef>(kPerLayer)
               : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef &d : defs) {
        const double v = r.get(d.name);
        if (!std::isfinite(v))
            r.violate(std::string("metric ") + d.name + " is " +
                      (std::isnan(v) ? "missing" : "not finite"));
        ordered.push_back({d.name, v, d.unit});
    }
    for (const Metric &m : r.metrics) {
        const bool known = std::any_of(
            defs.begin(), defs.end(),
            [&](const MetricDef &d) { return m.name == d.name; });
        if (!known)
            r.violate("unexpected metric " + m.name);
    }
    r.metrics = std::move(ordered);
}

Outcome
runWorkload(const WorkloadDef &w, const Options &opt, bool traced,
            double seconds, double fleet_scale)
{
    Outcome o;
    o.workload = w.name;
    o.traced = traced;
    if (traced)
        o.tracePath = opt.out + "/trace_" + w.name + ".json";
    RunSpec spec;
    spec.seed = opt.seed;
    spec.seconds = seconds;
    spec.fleetScale = fleet_scale;
    spec.smoke = opt.smoke;
    spec.weightsPath = opt.weights;

    const Child c = inChild(
        [&] { return workloadBody(w, spec, traced, o.tracePath); });
    o.wallS = c.wallS;
    o.cpuS = c.cpuS;
    if (const std::optional<Json> j = parseJson(c.output))
        o.result = resultFromJson(*j);
    if (!c.exitedCleanly)
        o.result.violate(c.how);
    orderMetrics(o.result, traced, c.peakRssMb);

    if (traced) {
        std::string error;
        const std::optional<std::string> text = readFile(o.tracePath);
        const std::optional<Json> trace =
            text ? parseJson(*text, &error) : std::nullopt;
        const Json *events = trace ? trace->find("traceEvents") : nullptr;
        if (!events || events->items.empty())
            o.result.violate(o.tracePath + " is not a trace: " + error);
    }
    if (!o.result.violations.empty() && o.result.failed == 0)
        o.result.failed = 1;
    return o;
}

// ---- Output ----

/** BENCH_e2e.json / BENCH_layers.json; false if it does not parse
 * back. */
bool
writeBenchFile(const std::string &path, const std::string &kind,
               const std::vector<Outcome> &outcomes, const Options &opt,
               double seconds, double prepare_s)
{
    std::string s = "{\n  \"schema_version\": " +
                    std::to_string(kSchemaVersion) +
                    ",\n  \"kind\": " + quote(kind) +
                    ",\n  \"git_sha\": " + quote(opt.sha) +
                    ",\n  \"nproc\": " + std::to_string(allowedCpus().size()) +
                    ",\n  \"cpu_model\": " + quote(cpuModel()) +
                    ",\n  \"seed\": " + std::to_string(opt.seed) +
                    ",\n  \"seconds\": " + number(seconds) +
                    ",\n  \"smoke\": " + (opt.smoke ? "true" : "false") +
                    ",\n  \"prepare_s\": " + number(prepare_s) +
                    ",\n  \"workloads\": [";
    bool first = true;
    for (const Outcome &o : outcomes) {
        if ((kind == "layers") != o.traced)
            continue;
        const std::string item = "\n        ";
        s += std::string(first ? "\n" : ",\n") + "    {\n" +
             "      \"name\": " + quote(o.workload) +
             ",\n      \"correct\": " + (o.correct() ? "true" : "false") +
             ",\n      \"attempted\": " +
             std::to_string(o.result.attempted) +
             ",\n      \"failed\": " + std::to_string(o.result.failed) +
             ",\n      \"violations\": " + stringsJson(o.result.violations) +
             ",\n      \"wall_s\": " + number(o.wallS) +
             ",\n      \"cpu_s\": " + number(o.cpuS) +
             ",\n      \"trace\": " +
             (o.traced ? quote(o.tracePath) : "null") +
             ",\n      \"metrics\": " + metricsJson(o.result.metrics, item) +
             ",\n      \"notes\": " + metricsJson(o.result.notes, item) +
             "\n    }";
        first = false;
    }
    s += "\n  ]\n}\n";
    std::ofstream(path) << s;
    const std::optional<std::string> back = readFile(path);
    return back && back == s && parseJson(*back);
}

void
printOutcome(const Outcome &o, bool heading)
{
    if (heading)
        std::cout << "# " << o.workload << (o.traced ? " (traced)" : "")
                  << "\n";
    for (const Metric &m : o.result.metrics)
        std::cout << m.name << " " << number(m.value) << " " << m.unit
                  << "\n";
    for (const Metric &m : o.result.notes)
        std::cout << "note " << m.name << " " << number(m.value) << " "
                  << m.unit << "\n";
    for (const std::string &v : o.result.violations)
        std::cerr << "perf_bench: " << o.workload << ": " << v << "\n";
}

/** The last stdout line. Several outcomes key metrics by workload. */
void
printResultLine(const std::vector<Outcome> &outcomes, bool extra_ok)
{
    bool correct = extra_ok;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string metrics;
    for (const Outcome &o : outcomes) {
        correct = correct && o.correct();
        attempted += o.result.attempted;
        failed += o.result.failed;
        for (const Metric &m : o.result.metrics) {
            const std::string key =
                outcomes.size() == 1 ? m.name : o.workload + "." + m.name;
            metrics += (metrics.empty() ? "" : ", ") + quote(key) +
                       ": {\"value\": " + number(m.value) +
                       ", \"unit\": " + quote(m.unit) + "}";
        }
    }
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {"
              << metrics << "}}" << std::endl;
}

// ---- Smoke test ----

/** BENCHMARK.json must declare exactly these workloads and metrics. */
bool
checkBenchmarkJson(const Options &opt, double &run_seconds)
{
    std::string error;
    const std::optional<std::string> text = readFile(opt.benchmarkJson);
    const std::optional<Json> j =
        text ? parseJson(*text, &error) : std::nullopt;
    if (!j) {
        std::cerr << "perf_bench: cannot read " << opt.benchmarkJson << ": "
                  << error << "\n";
        return false;
    }
    bool ok = true;
    // Compares "name unit" entries (just "name" for workloads).
    const auto expect = [&](const char *key, std::vector<std::string> ours) {
        std::vector<std::string> declared;
        if (const Json *list = j->find(key)) {
            for (const Json &m : list->items) {
                const Json *name = m.find("name");
                const Json *unit = m.find("unit");
                declared.push_back((name ? name->string : "?") +
                                   (unit ? " " + unit->string : ""));
            }
        }
        std::sort(declared.begin(), declared.end());
        std::sort(ours.begin(), ours.end());
        if (declared != ours) {
            std::cerr << "perf_bench: " << opt.benchmarkJson << " \"" << key
                      << "\" does not match perf_bench's\n";
            ok = false;
        }
    };
    const auto metrics = [](const auto &defs) {
        std::vector<std::string> out;
        for (const MetricDef &d : defs)
            out.push_back(std::string(d.name) + " " + d.unit);
        return out;
    };
    std::vector<std::string> workloads;
    for (const WorkloadDef &w : kWorkloads)
        workloads.push_back(w.name);
    expect("workloads", workloads);
    expect("end_to_end", metrics(kEndToEnd));
    expect("per_layer", metrics(kPerLayer));
    const Json *rs = j->find("run_seconds");
    run_seconds = rs ? rs->number : 0.0;
    if (!(run_seconds > 0.0)) {
        std::cerr << "perf_bench: no run_seconds in " << opt.benchmarkJson
                  << "\n";
        ok = false;
    }
    return ok;
}

} // namespace

} // namespace redeye::perf

int
main(int argc, char **argv)
{
    using namespace redeye::perf;
    Options opt;
    std::string error;
    if (!parseOptions(argc, argv, opt, error)) {
        std::cerr << "perf_bench: " << error << "\n";
        return 2;
    }
    std::error_code ec;
    std::filesystem::create_directories(opt.out, ec);
    if (ec) {
        std::cerr << "perf_bench: cannot create " << opt.out << ": "
                  << ec.message() << "\n";
        return 2;
    }

    double prepare_s = std::numeric_limits<double>::quiet_NaN();
    if (opt.prepare || !std::filesystem::exists(opt.weights)) {
        prepare_s = prepareWeights(opt.weights);
        if (prepare_s < 0.0)
            return 1;
        std::cout << "prepare_s " << number(prepare_s) << " s\n";
    }
    if (opt.prepare)
        return 0;

    double seconds = opt.seconds;
    double fleet_scale = 1.0;
    bool extra_ok = true;
    std::vector<Outcome> outcomes;
    if (opt.smoke) {
        // Every workload, untraced and traced, at ~1/50 length.
        double run_seconds = 0.0;
        extra_ok = checkBenchmarkJson(opt, run_seconds);
        seconds = (run_seconds > 0.0 ? run_seconds : opt.seconds) / 50.0;
        fleet_scale = 1.0 / 50.0;
        for (const WorkloadDef &w : kWorkloads) {
            for (const bool traced : {false, true})
                outcomes.push_back(
                    runWorkload(w, opt, traced, seconds, fleet_scale));
        }
    } else {
        for (const WorkloadDef &w : kWorkloads) {
            if (opt.workload == "all" || opt.workload == w.name)
                outcomes.push_back(
                    runWorkload(w, opt, opt.trace, seconds, fleet_scale));
        }
    }

    for (const bool traced : {false, true}) {
        const bool any = std::any_of(
            outcomes.begin(), outcomes.end(),
            [&](const Outcome &o) { return o.traced == traced; });
        if (!any)
            continue;
        const std::string path = opt.out + (traced ? "/BENCH_layers.json"
                                                   : "/BENCH_e2e.json");
        if (!writeBenchFile(path, traced ? "layers" : "e2e", outcomes, opt,
                            seconds, prepare_s)) {
            std::cerr << "perf_bench: " << path << " did not round-trip\n";
            extra_ok = false;
        }
    }
    for (const Outcome &o : outcomes)
        printOutcome(o, outcomes.size() > 1);
    printResultLine(outcomes, extra_ok);
    const bool ok = extra_ok &&
                    std::all_of(outcomes.begin(), outcomes.end(),
                                [](const Outcome &o) { return o.correct(); });
    return ok ? 0 : 1;
}
