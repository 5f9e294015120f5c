// cosoft_perfbench: one run of one workload against a cosoftd child over
// loopback TCP. perfbench/run.py builds this and invokes it as
//
//   cosoft_perfbench --workload NAME --seed N --seconds S --trace 0|1 --run-dir DIR
//
// The last line of stdout is the result object: correctness, ops attempted
// and failed, and the end-to-end metrics (trace 0) or the per-layer metrics
// (trace 1). The lines before it are a human-readable account of the run.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "cosoft/common/hot_path.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string run_dir;
};

/// Fixed per-workload inputs: the closed-loop batch (the fixed unit of
/// work one ops_per_s sample measures), the absolute open-loop rate (well
/// below what the closed loop sustains on the reference host) and the warm-up.
struct Profile {
    std::uint64_t batch_ops;
    double open_rate;
    std::uint64_t warmup_ops;
    std::uint64_t record_ops;  ///< traced-phase ops whose frames are kept for the replay
};

Profile profile_of(const std::string& w) {
    if (w == "classroom_coupled") return {24, 500, 400, ~0ULL};
    if (w == "command_fanout") return {64, 1000, 1024, 3072};  // whole 64-command rounds
    return {20, 300, 200, ~0ULL};  // tori_durable
}

// Set-ups per run: setup_s is their median. Every kSetups / kOpSessions-th
// set-up also runs an equal share of the measured phases; the others are
// torn down as soon as they are up.
constexpr int kSetups = 25;
constexpr int kOpSessions = 5;

Args parse(int argc, char** argv) {
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char* v = argv[i + 1];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = std::strtoull(v, nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::strtod(v, nullptr);
        } else if (k == "--trace") {
            a.trace = std::strcmp(v, "1") == 0;
        } else if (k == "--run-dir") {
            a.run_dir = v;
        } else {
            throw std::runtime_error("unknown argument " + k);
        }
    }
    if (a.workload.empty() || a.run_dir.empty() || a.seconds <= 0) throw std::runtime_error("usage: see main.cpp");
    return a;
}

std::unique_ptr<Workload> make(const Args& a, Tracer& tracer) {
    if (a.workload == "classroom_coupled") return make_classroom(a.run_dir, a.seed, tracer);
    if (a.workload == "command_fanout") return make_fanout(a.run_dir, a.seed, tracer);
    if (a.workload == "tori_durable") return make_tori(a.run_dir, a.seed, tracer);
    throw std::runtime_error("unknown workload " + a.workload);
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') out += '\\';
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out;
}

void print_result(const Outcome& out) {
    for (const auto& e : out.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                out.errors.empty() ? "true" : "false", static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric& m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.6g, \"unit\": \"%s\"}", i ? ", " : "", json_escape(m.name).c_str(),
                    m.value, json_escape(m.unit).c_str());
    }
    std::printf("}}\n");
}

/// Sets up `setups` sessions back to back, each with its own cosoftd
/// (timed), and runs the phases on `op_sessions` of them, evenly spaced:
/// those run their share of the phases and have their outputs checked. The
/// last teardown of the run scrapes the daemon first. Spreading a run over
/// several daemon processes keeps one process's luck (where its threads and
/// pages landed) from deciding the whole run.
PhaseResult run_sessions(Workload& w, const PhasePlan& plan, int setups, int op_sessions, std::uint64_t seed,
                         bool last, Outcome& out, std::vector<double>& setup_s) {
    PhasePlan share = plan;
    share.closed_seconds = plan.closed_seconds / op_sessions;
    share.open_seconds = plan.open_seconds / op_sessions;
    const int every = setups / op_sessions;
    PhaseResult all;
    for (int k = 0, ran = 0; k < setups; ++k) {
        w.before_setup();
        const auto t0 = Clock::now();
        w.setup();
        setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
        if ((k + 1) % every == 0) {
            PhaseResult r = run_phases(w, share, seed * 131 + static_cast<std::uint64_t>(ran++));
            std::printf("session %d: set-up %.4f s; closed loop median batch %.0f ops/s, host stole %.1f %%; open loop "
                        "p50 %.1f us over %zu ops, host stole %.1f %%\n",
                        k, setup_s.back(), quantile(r.batch_ops_per_s, 0.5), 100 * r.closed_steal_share.back(),
                        quantile(r.latency_us, 0.5), r.latency_us.size(), 100 * r.open_steal_share.back());
            w.verify(out);
            auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
                dst.insert(dst.end(), src.begin(), src.end());
            };
            append(all.batch_ops_per_s, r.batch_ops_per_s);
            all.closed_ops += r.closed_ops;
            all.closed_bytes += r.closed_bytes;
            append(all.latency_us, r.latency_us);
            append(all.late_us, r.late_us);
            all.attempted += r.attempted;
            all.failed += r.failed;
        }
        w.teardown(last && k == setups - 1);
    }
    std::printf("set-ups: %zu, min %.4f median %.4f max %.4f s\n", setup_s.size(), quantile(setup_s, 0),
                quantile(setup_s, 0.5), quantile(setup_s, 1));
    return all;
}

void report_phase(const char* label, const PhaseResult& r) {
    std::printf("%s: %zu closed-loop batches, %zu open-loop ops, %llu attempted, %llu failed\n", label,
                r.batch_ops_per_s.size(), r.latency_us.size(), static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    std::printf("%s: closed-loop batch rate min %.0f q1 %.0f median %.0f q3 %.0f p90 %.0f max %.0f ops/s\n", label,
                quantile(r.batch_ops_per_s, 0), quantile(r.batch_ops_per_s, 0.25), quantile(r.batch_ops_per_s, 0.5),
                quantile(r.batch_ops_per_s, 0.75), quantile(r.batch_ops_per_s, 0.9), quantile(r.batch_ops_per_s, 1));
    std::printf("%s: open-loop latency p10 %.1f p25 %.1f p50 %.1f us\n", label, quantile(r.latency_us, 0.1),
                quantile(r.latency_us, 0.25), quantile(r.latency_us, 0.5));
    std::printf("%s: open-loop schedule lateness p50 %.1f us, p99 %.1f us, max %.1f us\n", label,
                quantile(r.late_us, 0.5), quantile(r.late_us, 0.99), quantile(r.late_us, 1.0));
}

double per(double num, double den) { return den > 0 ? num / den : 0; }

void end_to_end(Outcome& out, double setup_s, const PhaseResult& r) {
    // p99 is reported here but kept out of the result line: across runs it
    // spreads far wider than any bound the benchmark could hold (README).
    std::printf("open-loop latency: p50 %.1f us, p99 %.1f us over %zu ops (%zu beyond p99)\n",
                quantile(r.latency_us, 0.5), quantile(r.latency_us, 0.99), r.latency_us.size(),
                r.latency_us.size() / 100);
    out.metrics.push_back({"setup_s", setup_s, "s"});
    out.metrics.push_back({"p50_us", quantile(r.latency_us, 0.5), "us"});
    // Batches are short, so the median batch is one no host stall hit;
    // bytes per op vary from op to op, so mb_per_s is that rate times the
    // mean useful bytes per op over all batches.
    const double ops_per_s = quantile(r.batch_ops_per_s, 0.5);
    out.metrics.push_back({"ops_per_s", ops_per_s, "1/s"});
    out.metrics.push_back(
        {"mb_per_s", ops_per_s * per(static_cast<double>(r.closed_bytes), static_cast<double>(r.closed_ops)) / 1e6,
         "MB/s"});
}

double mean_of(const ServerFigures& f, std::initializer_list<const char*> names) {
    double sum = 0;
    std::size_t n = 0;
    for (const char* name : names) {
        const auto it = f.us_by_message.find(name);
        if (it == f.us_by_message.end()) continue;
        for (double x : it->second) sum += x;
        n += it->second.size();
    }
    return n ? sum / static_cast<double>(n) : 0;
}

/// Writes the traced pass's spans as Chrome trace events (at most the first
/// 50000), so one op's calls can be inspected next to its parent spans.
void write_spans(const Tracer& t, const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    const Clock::time_point origin = t.spans.empty() ? Clock::now() : t.spans.front().start;
    std::fprintf(f, "{\"traceEvents\": [");
    const std::size_t n = std::min<std::size_t>(t.spans.size(), 50000);
    for (std::size_t i = 0; i < n; ++i) {
        const Tracer::Span& s = t.spans[i];
        std::fprintf(f, "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"op\": %llu, \"parent\": %llu, \"timed\": %d}}",
                     i ? "," : "", s.name, us_between(origin, s.start), us_between(s.start, s.end),
                     static_cast<unsigned long long>(s.op), static_cast<unsigned long long>(s.parent), s.timed ? 1 : 0);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

/// Every per-layer metric; layers a workload does not exercise read 0.
void per_layer(Outcome& out, Workload& w, const Args& a, const Tracer& t, const PhaseResult& plain,
               const PhaseResult& traced) {
    const double ops = static_cast<double>(std::min<std::uint64_t>(t.timed_ops, t.record_ops));
    const double all_ops = static_cast<double>(t.timed_ops);
    const bool tori = a.workload == "tori_durable";
    auto put = [&](const char* name, double v, const char* unit) { out.metrics.push_back({name, v, unit}); };

    const double emit = mean(t.durations_us("client.emit"));
    const double frame = mean(t.durations_us("client.frame"));
    const double send_command = mean(t.durations_us("client.send_command"));
    put("client.emit_us", emit, "us");
    put("client.frame_us", frame, "us");
    put("client.send_command_us", send_command, "us");
    put("client.allocs_per_op", per(static_cast<double>(t.client_allocs), all_ops), "count");

    const auto [encode_us, decode_us] = time_codec(t);
    put("protocol.encode_us", encode_us, "us");
    put("protocol.decode_us", decode_us, "us");
    double wire = 0;
    for (const auto& s : t.sent) {
        if (s.kind == Tracer::Sent::kFrame && s.timed) wire += static_cast<double>(s.frame.size() + 4);
    }
    for (const auto& f : t.received) wire += static_cast<double>(f.size() + 4);
    put("protocol.wire_bytes_per_op", per(wire, ops), "B");

    put("net.send_us", mean(t.durations_us("net.send")), "us");
    const std::string& m = w.final_metrics;
    const double flushes = prom_value(m, "cosoft_reactor_shard0_flush_syscalls_total");
    put("net.frames_per_flush", per(prom_value(m, "cosoft_reactor_shard0_frames_flushed_total"), flushes), "count");
    put("net.wakeups_per_op", per(prom_value(m, "cosoft_reactor_shard0_wakeups_total"), all_ops), "count");

    ServerReplay cfg;
    if (tori) {
        cfg.journal_dir = a.run_dir + "/replay-journal";
        cfg.journal_template = a.run_dir + "/journal-template";
    }
    const ServerFigures sf = replay_server(t, cfg);
    const double lockreq = mean_of(sf, {"LockReq"});
    const double event = mean_of(sf, {"EventMsg"});
    const double ack = mean_of(sf, {"ExecuteAck"});
    const double command = mean_of(sf, {"Command"});
    put("server.lockreq_us", lockreq, "us");
    put("server.event_us", event, "us");
    put("server.ack_us", ack, "us");
    put("server.command_us", command, "us");
    put("server.copy_us", mean_of(sf, {"CopyTo", "CopyFrom", "StateReply", "HistorySave", "UndoReq"}), "us");
    put("server.frames_per_op", per(static_cast<double>(sf.frames_in + sf.frames_out), ops), "count");
    put("server.allocs_per_op", per(static_cast<double>(sf.allocs), ops), "count");
    if (tori) {
        const auto [append_us, sync_us] = time_journal(t, a.run_dir + "/standalone-journal", 4);
        put("server.journal_append_us", append_us, "us");
        put("server.journal_sync_us", sync_us, "us");
        put("server.journal_bytes_per_op", per(static_cast<double>(sf.journal_bytes), ops), "B");
        put("server.replay_records_per_s", per(static_cast<double>(sf.records_replayed), sf.boot_s), "1/s");
    } else {
        for (const char* n : {"server.journal_append_us", "server.journal_sync_us"}) put(n, 0, "us");
        put("server.journal_bytes_per_op", 0, "B");
        put("server.replay_records_per_s", 0, "1/s");
        put("server.catchup_ms", 0, "ms");
        put("toolkit.snapshot_us", 0, "us");
        put("toolkit.merge_us", 0, "us");
        put("db.query_us", 0, "us");
    }
    w.layer_metrics(out);
    put("obs.record_ns", time_flight_recorder(), "ns");

    // The blocking path of the median op, layer by layer. A coupled action
    // (classroom, and the emits that make up most TORI ops): the emit, the
    // server's lock, event and final-ack dispatch, and three client frames
    // (grant at the emitter, replay and unlock at the last partner). A
    // command: the send, the server's fan-out, one receiver frame.
    const double layer_sum = a.workload == "command_fanout" ? send_command + command + frame
                                                             : emit + lockreq + event + ack + 3 * frame;
    const double p50_traced = quantile(traced.latency_us, 0.5);
    const double p50_plain = quantile(plain.latency_us, 0.5);
    put("trace.layer_sum_us", layer_sum, "us");
    put("trace.p50_us", p50_traced, "us");
    put("net.residual_us", p50_traced - layer_sum, "us");
    put("trace.overhead_p50_pct", per(p50_traced - p50_plain, p50_plain) * 100, "%");
    const double ops_plain = quantile(plain.batch_ops_per_s, 0.5);
    put("trace.overhead_ops_pct", per(ops_plain - quantile(traced.batch_ops_per_s, 0.5), ops_plain) * 100, "%");
}

int run(const Args& a) {
    std::filesystem::create_directories(a.run_dir);
    const std::string pinning = pin_to_one_cpu();
    std::printf("cpu placement: %s\n", pinning.empty() ? "unpinned" : pinning.c_str());
    Tracer tracer;
    auto w = make(a, tracer);
    Profile prof = profile_of(a.workload);
    // Untraced runs spend 40 % of the run on closed-loop batches and 50 % on
    // the open loop; a traced run splits that between an untraced pass and
    // a traced pass of equal length.
    const double share = a.trace ? 0.5 : 1.0;
    PhasePlan plan;
    plan.closed_seconds = 0.4 * a.seconds * share;
    plan.open_seconds = 0.5 * a.seconds * share;
    plan.batch_ops = prof.batch_ops;
    plan.open_rate = prof.open_rate;
    plan.warmup_ops = prof.warmup_ops;

    Outcome out;
    std::vector<double> setup_s;
    const PhaseResult plain = run_sessions(*w, plan, kSetups, kOpSessions, a.seed, !a.trace, out, setup_s);
    report_phase("untraced", plain);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    if (!a.trace) {
        end_to_end(out, quantile(setup_s, 0.5), plain);
        for (const Metric& m : out.metrics) std::printf("%-12s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
        print_result(out);
        return 0;
    }

    // The traced pass is one session, recorded from its set-up on so the
    // server replay starts where cosoftd did.
    tracer.enabled = true;
    tracer.record_ops = prof.record_ops;
    cosoft::hot::arm(true);
    std::vector<double> traced_setup_s;
    const PhaseResult traced = run_sessions(*w, plan, 1, 1, a.seed + 1, true, out, traced_setup_s);
    tracer.enabled = false;
    cosoft::hot::arm(false);
    report_phase("traced", traced);
    out.attempted += traced.attempted;
    out.failed += traced.failed;
    per_layer(out, *w, a, tracer, plain, traced);
    // Next to the run directory, which run.py removes after the run.
    const std::string spans_path = std::filesystem::path(a.run_dir).parent_path().string() + "/spans-" + a.workload + ".json";
    write_spans(tracer, spans_path);
    std::printf("spans: %zu recorded, written to %s\n", tracer.spans.size(), spans_path.c_str());
    for (const Metric& m : out.metrics) std::printf("%-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    print_result(out);
    return 0;
}

}  // namespace

void Workload::scrape_and_stop(Daemon& daemon) {
    // /metrics only after every client has gone: the daemon's connection
    // gauge must read zero first.
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    for (;;) {
        final_metrics = daemon.scrape_metrics();
        if (prom_value(final_metrics, "cosoft_server_sessions_connections_active") == 0 || Clock::now() > deadline) break;
        mux_.pump_once(Clock::now() + std::chrono::milliseconds(2));
    }
    daemon.stop();
}

}  // namespace perfbench

int main(int argc, char** argv) {
    try {
        return perfbench::run(perfbench::parse(argc, argv));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "cosoft_perfbench: %s\n", e.what());
        return 1;
    }
}
