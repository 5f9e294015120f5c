#include "harness.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "cosoft/common/hot_path.hpp"
#include "cosoft/net/http.hpp"
#include "cosoft/sim/rng.hpp"

namespace perfbench {

namespace net = cosoft::net;
using cosoft::client::CoApp;

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0;
    double s = 0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

// --- Daemon --------------------------------------------------------------------------

namespace {

// The daemon runs with one dispatch worker and one reactor shard: every
// workload is a single session, which dispatches serially anyway, and the
// client process plus the daemon then fit the host's CPUs without the two
// competing for cores.
const std::vector<std::string> kDaemonFlags = {
    "0", "--workers", "1", "--reactors", "1", "--http-port", "0", "--stall-ms", "2000", "--max-seconds", "170",
};

std::optional<std::uint16_t> port_after(const std::string& log, const std::string& marker) {
    const std::size_t at = log.find(marker);
    if (at == std::string::npos) return std::nullopt;
    std::size_t p = at + marker.size();
    std::uint32_t port = 0;
    bool any = false;
    while (p < log.size() && log[p] >= '0' && log[p] <= '9') {
        port = port * 10 + static_cast<std::uint32_t>(log[p] - '0');
        any = true;
        ++p;
    }
    if (!any || p >= log.size()) return std::nullopt;  // digits may still be arriving
    return static_cast<std::uint16_t>(port);
}

bool g_pinned = false;
cpu_set_t g_bench_cpu;  // the one CPU the load generator and cosoftd share

std::string cpu_list(const cpu_set_t& set) {
    std::string out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (!CPU_ISSET(c, &set)) continue;
        if (!out.empty()) out += ',';
        out += std::to_string(c);
    }
    return out;
}

}  // namespace

std::string pin_to_one_cpu() {
    cpu_set_t all;
    CPU_ZERO(&all);
    if (sched_getaffinity(0, sizeof all, &all) != 0) return {};
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &all)) cpus.push_back(c);
    }
    // The second CPU when there is one (the first tends to take the host's
    // interrupts). Sharing one CPU, every hand-off between the load
    // generator's and cosoftd's threads is a context switch on a running
    // vCPU; spread over two, each would wake a halted vCPU through the
    // hypervisor, which on a shared host takes as long as the host is busy.
    CPU_ZERO(&g_bench_cpu);
    CPU_SET(cpus.at(cpus.size() >= 2 ? 1 : 0), &g_bench_cpu);
    // Before any thread exists, so the client reactor inherits the mask, as
    // every cosoftd child does across fork and exec.
    if (sched_setaffinity(0, sizeof g_bench_cpu, &g_bench_cpu) != 0) return {};
    g_pinned = true;
    return "load generator and cosoftd on CPU " + cpu_list(g_bench_cpu);
}

double stolen_seconds() {
    std::FILE* f = std::fopen("/proc/stat", "r");
    if (f == nullptr) return 0;
    char line[512];
    long long ticks = 0;
    while (std::fgets(line, sizeof line, f) != nullptr) {
        int cpu = -1;
        long long v[8] = {};
        if (std::sscanf(line, "cpu%d %lld %lld %lld %lld %lld %lld %lld %lld", &cpu, &v[0], &v[1], &v[2], &v[3],
                        &v[4], &v[5], &v[6], &v[7]) != 9) {
            continue;  // the aggregate "cpu " line and the non-CPU lines
        }
        if (!g_pinned || (cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &g_bench_cpu))) ticks += v[7];
    }
    std::fclose(f);
    return static_cast<double>(ticks) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Daemon::Daemon(std::string run_dir, std::vector<std::string> extra_flags)
    : run_dir_(std::move(run_dir)), extra_flags_(std::move(extra_flags)) {}

Daemon::~Daemon() {
    if (pid_ > 0) reap(SIGKILL);
}

void Daemon::start() {
    static int launches = 0;  // one log per daemon launch of this process
    const std::string log_path = run_dir_ + "/cosoftd-" + std::to_string(launches++) + ".log";
    ::unlink(log_path.c_str());
    std::vector<std::string> args{COSOFTD_PATH};
    args.insert(args.end(), kDaemonFlags.begin(), kDaemonFlags.end());
    args.insert(args.end(), {"--incident-dir", run_dir_});
    args.insert(args.end(), extra_flags_.begin(), extra_flags_.end());
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
        // The daemon must not outlive the load generator, whatever happens to it.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent) _exit(127);
        const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            dup2(fd, 1);
            dup2(fd, 2);
            ::close(fd);
        }
        execv(argv[0], argv.data());
        _exit(127);
    }
    pid_ = pid;
    port_ = 0;
    http_port_ = 0;

    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
        std::ifstream in(log_path);
        std::stringstream ss;
        ss << in.rdbuf();
        const std::string log = ss.str();
        if (const auto p = port_after(log, "listening on 127.0.0.1:")) port_ = *p;
        if (const auto p = port_after(log, "monitor http on 127.0.0.1:")) http_port_ = *p;
        if (port_ != 0 && http_port_ != 0) return;
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            throw std::runtime_error("cosoftd exited during start-up: " + log);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    throw std::runtime_error("cosoftd did not report its ports");
}

void Daemon::reap(int sig) {
    if (pid_ <= 0) return;
    ::kill(pid_, sig);
    // An orderly shutdown gets 5 s; a daemon still alive then is killed so
    // the run can end, and the hang is reported.
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
        if (Clock::now() > deadline) {
            std::printf("cosoftd pid %d still running 5 s after signal %d; killed\n", static_cast<int>(pid_), sig);
            ::kill(pid_, SIGKILL);
            (void)waitpid(pid_, &status, 0);
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
}

void Daemon::kill_hard() { reap(SIGKILL); }
void Daemon::stop() { reap(SIGTERM); }

std::string Daemon::scrape_metrics() const {
    auto r = net::http_get("127.0.0.1", http_port_, "/metrics", 5000);
    if (!r.is_ok() || r.value().status != 200) return {};
    return r.value().body;
}

double prom_value(const std::string& text, const std::string& name) {
    std::size_t pos = 0;
    while ((pos = text.find(name, pos)) != std::string::npos) {
        const bool line_start = pos == 0 || text[pos - 1] == '\n';
        const std::size_t after = pos + name.size();
        if (line_start && after < text.size() && (text[after] == ' ' || text[after] == '{')) {
            const std::size_t sp = text.find(' ', after);
            if (sp == std::string::npos) return 0;
            return std::strtod(text.c_str() + sp + 1, nullptr);
        }
        pos = after;
    }
    return 0;
}

// --- Tracer ------------------------------------------------------------------------------

std::size_t Tracer::begin(const char* name) {
    Span s{name, timed_phase, current_op, open.empty() ? 0 : open.back() + 1, Clock::now(), {}};
    spans.push_back(s);
    open.push_back(spans.size() - 1);
    return spans.size() - 1;
}

void Tracer::end(std::size_t index) {
    spans[index].end = Clock::now();
    if (!open.empty()) open.pop_back();
}

std::vector<double> Tracer::durations_us(const char* name) const {
    std::vector<double> out;
    for (const Span& s : spans) {
        if (s.timed && std::strcmp(s.name, name) == 0) out.push_back(us_between(s.start, s.end));
    }
    return out;
}

SpanScope::SpanScope(Tracer& t, const char* name) : t_(t) {
    if (!t_.enabled) return;
    // Allocations are counted at the outermost client call only, so a
    // nested net.send is not counted twice.
    if (std::strncmp(name, "client.", 7) == 0 && t_.open.empty()) {
        allocs_.emplace("bench.client", cosoft::hot::kUnbudgeted);
    }
    index_ = t_.begin(name);
}

SpanScope::~SpanScope() {
    if (!t_.enabled) return;
    t_.end(index_);
    if (allocs_ && t_.timed_phase) t_.client_allocs += allocs_->allocs();
}

// --- BenchChannel / Mux ---------------------------------------------------------------------

BenchChannel::BenchChannel(Mux& mux, int id, std::shared_ptr<net::TcpChannel> tcp)
    : mux_(mux), id_(id), tcp_(std::move(tcp)) {}

BenchChannel::~BenchChannel() { mux_.forget(id_); }

cosoft::Status BenchChannel::send(protocol::Frame frame) {
    Tracer& t = mux_.tracer_;
    if (t.enabled) {
        if (t.recording()) t.sent.push_back({Tracer::Sent::kFrame, id_, t.timed_phase, frame});
        const SpanScope span{t, "net.send"};
        return tcp_->send(std::move(frame));
    }
    return tcp_->send(std::move(frame));
}

Mux::Mux(Tracer& tracer) : tracer_(tracer), reactor_(net::Reactor::create(1)) {}

Mux::~Mux() = default;

std::shared_ptr<BenchChannel> Mux::connect(std::uint16_t port) {
    auto tcp = net::tcp_connect("127.0.0.1", port, reactor_);
    if (!tcp.is_ok()) throw std::runtime_error("connect failed: " + tcp.error().message);
    const int id = next_id_++;
    auto ch = std::make_shared<BenchChannel>(*this, id, tcp.value());
    live_[id] = ch.get();
    if (tracer_.recording()) tracer_.sent.push_back({Tracer::Sent::kAttach, id, tracer_.timed_phase, {}});
    // Reactor delivery: the shard thread only posts; all COSOFT client
    // logic runs on the load-generator thread, as with poll().
    tcp.value()->on_receive([this, id](const protocol::Frame& f) { post({id, false, f}); });
    tcp.value()->on_close([this, id] { post({id, true, {}}); });
    tcp.value()->enable_reactor_delivery();
    return ch;
}

void Mux::post(Posted p) {
    {
        std::lock_guard lock(mu_);
        posted_.push_back(std::move(p));
    }
    cv_.notify_one();
}

void Mux::forget(int conn) {
    live_.erase(conn);
    if (tracer_.recording()) tracer_.sent.push_back({Tracer::Sent::kClose, conn, tracer_.timed_phase, {}});
}

void Mux::pump_once(Clock::time_point deadline) {
    {
        std::unique_lock lock(mu_);
        if (posted_.empty()) cv_.wait_until(lock, deadline, [&] { return !posted_.empty(); });
        batch_.assign(std::make_move_iterator(posted_.begin()), std::make_move_iterator(posted_.end()));
        posted_.clear();
    }
    for (Posted& p : batch_) {
        const auto it = live_.find(p.conn);
        if (it == live_.end()) continue;
        BenchChannel* ch = it->second;
        if (p.closed) {
            if (ch->close_) ch->close_();
        } else if (ch->receive_) {
            if (tracer_.enabled) {
                if (tracer_.timed_phase && tracer_.recording()) tracer_.received.push_back(p.frame);
                const SpanScope span{tracer_, "client.frame"};
                ch->receive_(p.frame);
            } else {
                ch->receive_(p.frame);
            }
        }
        if (hook_) hook_();
    }
    batch_.clear();
}

bool Mux::pump_until(const std::function<bool()>& done, Clock::time_point deadline) {
    while (!done()) {
        if (Clock::now() >= deadline) return false;
        pump_once(std::min(deadline, Clock::now() + std::chrono::milliseconds(50)));
    }
    return true;
}

std::shared_ptr<BenchChannel> join(Mux& mux, std::uint16_t port, CoApp& app, const std::string& session,
                                   int timeout_ms) {
    auto ch = mux.connect(port);
    app.connect(ch, session);
    if (!mux.pump_until([&] { return app.online(); }, Clock::now() + std::chrono::milliseconds(timeout_ms))) {
        throw std::runtime_error("registration timed out for " + app.app_name());
    }
    return ch;
}

void await(Mux& mux, const std::function<void(CoApp::Done)>& call, const char* what) {
    bool done = false;
    cosoft::Status status = cosoft::Status::ok();
    call([&](const cosoft::Status& st) {
        done = true;
        status = st;
    });
    if (!mux.pump_until([&] { return done; }, Clock::now() + std::chrono::seconds(10))) {
        throw std::runtime_error(std::string{what} + " timed out");
    }
    if (!status.is_ok()) throw std::runtime_error(std::string{what} + " failed: " + status.message());
}

// --- the op engine -------------------------------------------------------------------------

PhaseResult run_phases(Workload& w, const PhasePlan& plan, std::uint64_t seed) {
    Mux& mux = w.mux();
    Tracer& tracer = mux.tracer();
    struct Lane {
        bool busy = false;
        bool open_loop = false;
        Clock::time_point intended{};
        Clock::time_point freed{};
        std::uint64_t bytes = 0;
    };
    std::vector<Lane> lanes(w.lanes());
    PhaseResult r;
    std::uint64_t next = 0;
    std::uint64_t completed = 0;
    std::uint64_t bytes_done = 0;
    std::size_t busy = 0;

    auto scan = [&] {
        const Clock::time_point now = Clock::now();
        for (std::size_t l = 0; l < lanes.size(); ++l) {
            Lane& lane = lanes[l];
            if (!lane.busy) continue;
            const int s = w.state(l);
            if (s == 0) continue;
            lane.busy = false;
            lane.freed = now;
            --busy;
            if (s < 0) {
                ++r.failed;
                continue;
            }
            ++completed;
            bytes_done += lane.bytes;
            if (lane.open_loop) r.latency_us.push_back(us_between(lane.intended, now));
        }
        w.progress();
    };
    mux.set_frame_hook(scan);

    // Issues the next op if its lane is free; false when it must wait.
    auto try_issue = [&](bool open_loop, Clock::time_point intended) {
        if (w.hold()) return false;
        const std::size_t l = w.next_lane();
        Lane& lane = lanes[l];
        if (lane.busy) return false;
        const Clock::time_point now = Clock::now();
        if (open_loop) r.late_us.push_back(us_between(std::max(intended, lane.freed), now));
        lane.busy = true;
        lane.open_loop = open_loop;
        lane.intended = open_loop ? intended : now;
        ++busy;
        tracer.current_op = next + 1;
        if (tracer.timed()) ++tracer.timed_ops;
        lane.bytes = w.issue();
        tracer.current_op = 0;
        ++next;
        ++r.attempted;
        w.after_issue();
        scan();  // a refused emission completes synchronously
        return true;
    };

    const auto stuck_after = std::chrono::seconds(20);
    auto drain = [&] {
        const auto deadline = Clock::now() + stuck_after;
        if (!mux.pump_until([&] { return busy == 0 && !w.hold(); }, deadline)) {
            throw std::runtime_error("ops did not complete within 20 s");
        }
    };
    auto closed_batch = [&](std::uint64_t ops) {
        const std::uint64_t target = next + ops;
        const auto deadline = Clock::now() + stuck_after;
        while (next < target) {
            while (next < target && try_issue(false, {})) {
            }
            if (next < target) mux.pump_once(std::min(deadline, Clock::now() + std::chrono::milliseconds(50)));
            if (Clock::now() > deadline) throw std::runtime_error("closed-loop batch stalled");
        }
        drain();
    };

    // Warm-up: caches, lazily grown buffers, the first journal records.
    closed_batch(plan.warmup_ops);
    tracer.timed_phase = true;

    // Closed loop: fixed batches of work; each yields one rate sample.
    const auto closed_start = Clock::now();
    const auto closed_end = closed_start + std::chrono::duration<double>(plan.closed_seconds);
    const double stolen0 = stolen_seconds();
    do {
        const std::uint64_t c0 = completed;
        const std::uint64_t b0 = bytes_done;
        const auto t0 = Clock::now();
        closed_batch(plan.batch_ops);
        const double s = std::chrono::duration<double>(Clock::now() - t0).count();
        r.batch_ops_per_s.push_back(static_cast<double>(completed - c0) / s);
        r.closed_ops += completed - c0;
        r.closed_bytes += bytes_done - b0;
    } while (Clock::now() < closed_end);
    r.closed_steal_share.push_back((stolen_seconds() - stolen0) /
                                   std::chrono::duration<double>(Clock::now() - closed_start).count());

    // Open loop: Poisson arrivals at a fixed absolute rate, each op timed
    // from its intended send time (coordinated omission included).
    cosoft::sim::Rng rng{seed ^ 0x0be11001ULL};
    const double open_stolen0 = stolen_seconds();
    const auto t0 = Clock::now();
    const auto open_end = t0 + std::chrono::duration<double>(plan.open_seconds);
    auto gap = [&] {
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(rng.exponential(1.0 / plan.open_rate)));
    };
    Clock::time_point due = t0 + gap();
    const auto deadline = open_end + stuck_after;
    while (due < open_end) {
        if (Clock::now() >= due && try_issue(true, due)) {
            due += gap();
            continue;
        }
        mux.pump_once(Clock::now() >= due ? Clock::now() + std::chrono::milliseconds(50) : due);
        if (Clock::now() > deadline) throw std::runtime_error("open loop stalled");
    }
    drain();
    r.open_steal_share.push_back((stolen_seconds() - open_stolen0) /
                                 std::chrono::duration<double>(Clock::now() - t0).count());
    tracer.timed_phase = false;
    mux.set_frame_hook({});
    return r;
}

}  // namespace perfbench
