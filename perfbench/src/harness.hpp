// Load-generator plumbing shared by the three workloads: the cosoftd child
// process, the client-side channel multiplexer, the op engine that runs the
// closed- and open-loop phases, and the traced-run bookkeeping.
//
// Everything the load generator does to the program goes through public API:
// client::CoApp, apps::*, net::tcp_connect and, in the traced run only, the
// layer functions the per-layer figures time.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cosoft/client/co_app.hpp"
#include "cosoft/common/hot_path.hpp"
#include "cosoft/net/tcp.hpp"
#include "cosoft/protocol/frame.hpp"

namespace perfbench {

namespace protocol = cosoft::protocol;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double us_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::micro>(b - a).count();
}

/// q-quantile (0..1) of `v` by linear interpolation; sorts a copy.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double mean(const std::vector<double>& v);

/// One named figure in the result line.
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/// What a run prints last: correctness, op counts, metrics.
struct Outcome {
    std::vector<std::string> errors;  ///< empty = every output check passed
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    void check(bool ok, const std::string& what) {
        if (!ok) errors.push_back(what);
    }
};

// --- the daemon -----------------------------------------------------------------

/// cosoftd as a child process with explicit flags. stdout/stderr go to a
/// log file in the run directory, from which the listening and monitor
/// ports are read.
class Daemon {
  public:
    Daemon(std::string run_dir, std::vector<std::string> extra_flags);
    ~Daemon();
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /// Forks and execs cosoftd; returns once it prints its listening port
    /// (and its monitor port). Throws std::runtime_error on failure.
    void start();
    /// SIGKILL and reap: what a crash looks like to the journal.
    void kill_hard();
    /// SIGTERM and reap: orderly shutdown.
    void stop();
    /// GET /metrics from the monitor plane.
    [[nodiscard]] std::string scrape_metrics() const;

    [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  private:
    void reap(int sig);

    std::string run_dir_;
    std::vector<std::string> extra_flags_;
    pid_t pid_ = -1;
    std::uint16_t port_ = 0;
    std::uint16_t http_port_ = 0;
};

/// Pins this process, and so every cosoftd child, to one CPU. Returns a
/// description for the run log ("" when pinning failed).
std::string pin_to_one_cpu();

/// Host CPU time stolen (the hypervisor ran something else while the vCPU
/// wanted to run), in seconds, on the CPU the load generator and cosoftd
/// are pinned to (every CPU when unpinned); from /proc/stat, so it moves in
/// steps of one clock tick (10 ms). Printed next to each phase's figures.
[[nodiscard]] double stolen_seconds();

/// Reads a gauge/counter value out of a Prometheus exposition (0 if absent).
[[nodiscard]] double prom_value(const std::string& text, const std::string& name);

// --- client side ------------------------------------------------------------------

/// Per-run tracing sink for the client process: spans the load generator wraps
/// around its own calls into the program, plus the client-to-server frames
/// recorded for the server-side replay. Only touched when enabled.
struct Tracer {
    struct Span {
        const char* name;
        bool timed;           ///< opened during the measured op phases
        std::uint64_t op;     ///< op being issued when opened (0 = none, e.g. an inbound frame)
        std::uint64_t parent; ///< index+1 of the enclosing span, 0 = root
        Clock::time_point start;
        Clock::time_point end;
    };
    /// One recorded client-to-server event, in client send order.
    struct Sent {
        enum Kind : std::uint8_t { kFrame, kAttach, kClose } kind = kFrame;
        int conn = 0;
        bool timed = false;  ///< sent during the measured op phases
        protocol::Frame frame;
    };

    bool enabled = false;
    bool timed_phase = false;     ///< ops are being measured (set-up is not)
    std::uint64_t current_op = 0;
    /// Frames are recorded for the first `record_ops` ops of the traced
    /// phase only, which bounds memory on the large-payload workload.
    std::uint64_t record_ops = ~0ULL;
    std::uint64_t timed_ops = 0;  ///< ops issued in the traced phase so far
    [[nodiscard]] bool recording() const noexcept { return enabled && timed_ops <= record_ops; }
    [[nodiscard]] bool timed() const noexcept { return enabled && timed_phase; }
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< stack of open span indices
    std::vector<Sent> sent;
    std::vector<protocol::Frame> received;  ///< server-to-client frames of the op phases
    std::uint64_t client_allocs = 0;        ///< heap allocations inside wrapped client calls

    std::size_t begin(const char* name);
    void end(std::size_t index);
    /// Durations of the spans named `name` opened in the op phases.
    [[nodiscard]] std::vector<double> durations_us(const char* name) const;
};

/// RAII span; no-op when tracing is off. Also counts heap allocations made
/// inside `client.*` spans (the hot:: counters, armed only in traced runs).
class SpanScope {
  public:
    SpanScope(Tracer& t, const char* name);
    ~SpanScope();
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Tracer& t_;
    std::size_t index_ = 0;
    std::optional<cosoft::hot::HotScope> allocs_;
};

class Mux;

/// The channel a CoApp sees: forwards to a TcpChannel whose inbound frames
/// the reactor thread posts into the Mux; the load generator's single thread then
/// dispatches them. Sends are timed (net.send) in traced runs.
class BenchChannel final : public cosoft::net::Channel {
  public:
    BenchChannel(Mux& mux, int id, std::shared_ptr<cosoft::net::TcpChannel> tcp);
    ~BenchChannel() override;

    cosoft::Status send(protocol::Frame frame) override;
    void on_receive(ReceiveHandler handler) override { receive_ = std::move(handler); }
    void on_close(CloseHandler handler) override { close_ = std::move(handler); }
    [[nodiscard]] bool connected() const override { return tcp_->connected(); }
    void close() override { tcp_->close(); }


  private:
    friend class Mux;
    Mux& mux_;
    int id_;
    std::shared_ptr<cosoft::net::TcpChannel> tcp_;
    ReceiveHandler receive_;
    CloseHandler close_;
};

/// Single-threaded dispatcher for every client connection of the run. The
/// client reactor (one shard: the only other thread of the process) posts
/// complete frames here; pump() hands them to the owning CoApp on the
/// load-generator thread and then calls the frame hook, which is where the engine
/// detects completed ops.
class Mux {
  public:
    explicit Mux(Tracer& tracer);
    ~Mux();

    /// Connects to cosoftd and wraps the socket (not yet registered).
    std::shared_ptr<BenchChannel> connect(std::uint16_t port);
    /// Dispatches posted frames until `done()` holds or `deadline` passes.
    /// Returns done().
    bool pump_until(const std::function<bool()>& done, Clock::time_point deadline);
    /// Dispatches whatever is posted, waiting at most until `deadline` for
    /// the first frame.
    void pump_once(Clock::time_point deadline);

    void set_frame_hook(std::function<void()> hook) { hook_ = std::move(hook); }
    [[nodiscard]] Tracer& tracer() noexcept { return tracer_; }

  private:
    friend class BenchChannel;
    struct Posted {
        int conn;
        bool closed;
        protocol::Frame frame;
    };
    void post(Posted p);
    void forget(int conn);

    Tracer& tracer_;
    std::shared_ptr<cosoft::net::Reactor> reactor_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<Posted> posted_;          // guarded by mu_
    std::vector<Posted> batch_;          // load-generator thread only
    std::map<int, BenchChannel*> live_;  // load-generator thread only
    int next_id_ = 1;
    std::function<void()> hook_;
};

/// Connects `app` through the mux into session `session` and waits until it
/// is online. Throws on timeout.
std::shared_ptr<BenchChannel> join(Mux& mux, std::uint16_t port, cosoft::client::CoApp& app,
                                   const std::string& session, int timeout_ms = 5000);

/// Waits for an async CoApp request's completion callback. Throws on
/// timeout or error status.
void await(Mux& mux, const std::function<void(cosoft::client::CoApp::Done)>& call, const char* what);

// --- the op engine --------------------------------------------------------------------

/// A workload: its cosoftd child, its client apps and its seeded op
/// stream, as the engine drives it. Ops are drawn in order; each occupies
/// one lane until it completes (a coupling group, a command window slot).
class Workload {
  public:
    Workload(std::string run_dir, std::uint64_t seed, Tracer& tracer)
        : run_dir_(std::move(run_dir)), seed_(seed), tracer_(tracer), mux_(tracer) {}
    virtual ~Workload() = default;
    Workload(const Workload&) = delete;
    Workload& operator=(const Workload&) = delete;

    [[nodiscard]] virtual std::size_t lanes() const = 0;
    /// Work the timed set-up must not include (restoring a journal).
    virtual void before_setup() {}
    /// Builds the session: daemon, connections, UIs, coupling. Timed as
    /// setup_s.
    virtual void setup() = 0;
    /// Tears the session down; `final` scrapes the daemon first.
    virtual void teardown(bool final) = 0;
    /// Lane of the next op of the stream.
    [[nodiscard]] virtual std::size_t next_lane() = 0;
    /// Issues the next op; returns its useful payload bytes (bytes
    /// delivered to partners, counted once per recipient).
    virtual std::uint64_t issue() = 0;
    /// 0 = still in flight, 1 = completed, -1 = failed.
    [[nodiscard]] virtual int state(std::size_t lane) = 0;
    /// True while the workload needs the op stream paused (a late joiner
    /// copying state in). Checked before each issue.
    [[nodiscard]] virtual bool hold() { return false; }
    /// Called after every issue.
    virtual void after_issue() {}
    /// Called from the frame hook so background episodes make progress.
    virtual void progress() {}
    /// Output checks.
    virtual void verify(Outcome& out) = 0;
    /// Workload-specific per-layer figures of the traced pass.
    virtual void layer_metrics(Outcome& /*out*/) {}

    [[nodiscard]] Mux& mux() noexcept { return mux_; }
    /// cosoftd's /metrics, scraped at the final teardown after every
    /// client disconnected.
    std::string final_metrics;

  protected:
    /// Scrapes /metrics once the daemon has seen every client leave, then
    /// stops it.
    void scrape_and_stop(Daemon& daemon);

    std::string run_dir_;
    std::uint64_t seed_;
    Tracer& tracer_;
    Mux mux_;
};

struct PhasePlan {
    double closed_seconds = 0;
    std::uint64_t batch_ops = 0;     ///< closed-loop batch: the fixed unit of work
    double open_seconds = 0;
    double open_rate = 0;            ///< ops per second, Poisson
    std::uint64_t warmup_ops = 0;
};

struct PhaseResult {
    std::vector<double> batch_ops_per_s;
    std::vector<double> closed_steal_share;  ///< host-stolen share of each closed-loop phase's wall time
    std::vector<double> open_steal_share;    ///< the same for each open-loop phase
    std::uint64_t closed_ops = 0;    ///< ops completed in the closed-loop batches
    std::uint64_t closed_bytes = 0;  ///< their useful payload bytes
    std::vector<double> latency_us;   ///< open loop, from intended send time
    std::vector<double> late_us;      ///< generator lateness when the lane was free
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/// Runs warm-up, the closed-loop batches and the open-loop phase.
PhaseResult run_phases(Workload& w, const PhasePlan& plan, std::uint64_t seed);

}  // namespace perfbench
