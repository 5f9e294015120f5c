#include "layers.hpp"

#include <filesystem>
#include <optional>
#include <stdexcept>

#include "cosoft/common/hot_path.hpp"
#include "cosoft/net/channel.hpp"
#include "cosoft/obs/flight_recorder.hpp"
#include "cosoft/protocol/messages.hpp"
#include "cosoft/server/session_journal.hpp"
#include "cosoft/server/session_manager.hpp"
#include "cosoft/toolkit/widget.hpp"

namespace perfbench {

namespace fs = std::filesystem;
namespace server = cosoft::server;

double time_merges(const std::vector<CopyRecord>& copies) {
    std::vector<double> us;
    for (const CopyRecord& c : copies) {
        cosoft::toolkit::WidgetTree tree;
        auto* dest = tree.root().add_child(c.dest_before.cls, c.dest_before.name).value();
        (void)cosoft::toolkit::apply_destructive(*dest, c.dest_before);
        const auto t0 = Clock::now();
        (void)cosoft::toolkit::apply_flexible(*dest, c.source);
        (void)cosoft::toolkit::apply_destructive(*dest, c.dest_before);
        us.push_back(us_between(t0, Clock::now()));
    }
    return mean(us);
}

namespace {

/// A server-side connection end that goes nowhere: it counts what the
/// session sends and hands the recorded client frames to the handler the
/// manager installed at attach().
class SinkChannel final : public cosoft::net::Channel {
  public:
    explicit SinkChannel(std::uint64_t& sent) : sent_(sent) {}
    cosoft::Status send(protocol::Frame) override {
        ++sent_;
        return cosoft::Status::ok();
    }
    void on_receive(ReceiveHandler h) override { receive = std::move(h); }
    void on_close(CloseHandler h) override { closed = std::move(h); }
    bool connected() const override { return open; }
    void close() override { open = false; }

    ReceiveHandler receive;
    CloseHandler closed;
    bool open = true;

  private:
    std::uint64_t& sent_;
};

}  // namespace

ServerFigures replay_server(const Tracer& t, const ServerReplay& cfg) {
    ServerFigures fig;
    server::SessionManagerOptions opts;
    opts.workers = 0;  // inline dispatch on this thread
    if (!cfg.journal_dir.empty()) {
        fs::remove_all(cfg.journal_dir);
        if (!cfg.journal_template.empty()) {
            fs::copy(cfg.journal_template, cfg.journal_dir, fs::copy_options::recursive);
        } else {
            fs::create_directories(cfg.journal_dir);
        }
        opts.journal_dir = cfg.journal_dir;
        opts.journal_fsync = server::FsyncPolicy::kNever;
        opts.sync_late_joiners = true;
        // Growth per op is read off the file size, so no compaction here.
        opts.journal_compact_bytes = std::size_t{1} << 40;
    }
    std::uint64_t sent = 0;
    const auto boot0 = Clock::now();
    std::optional<server::SessionManager> manager{std::in_place, opts};
    fig.boot_s = std::chrono::duration<double>(Clock::now() - boot0).count();

    auto journal_bytes = [&]() -> std::uint64_t {
        std::uint64_t total = 0;
        if (cfg.journal_dir.empty()) return 0;
        for (const auto& e : fs::directory_iterator(cfg.journal_dir)) {
            if (e.is_regular_file()) total += e.file_size();
        }
        return total;
    };
    if (!cfg.journal_dir.empty()) {
        for (const auto& e : fs::directory_iterator(cfg.journal_dir)) {
            const auto name = server::SessionJournal::read_session_name(e.path().string());
            if (!name) continue;
            if (auto* s = manager->find_session(*name); s != nullptr && s->session_journal() != nullptr) {
                fig.records_replayed += s->session_journal()->recovered().records_scanned;
            }
        }
    }

    std::map<int, std::shared_ptr<SinkChannel>> conns;
    std::uint64_t bytes_at_timed = 0;
    bool timed_started = false;
    cosoft::hot::arm(true);
    for (const Tracer::Sent& s : t.sent) {
        if (s.timed && !timed_started) {
            timed_started = true;
            bytes_at_timed = journal_bytes();
        }
        switch (s.kind) {
            case Tracer::Sent::kAttach: {
                auto ch = std::make_shared<SinkChannel>(sent);
                conns[s.conn] = ch;
                (void)manager->attach(ch);
                break;
            }
            case Tracer::Sent::kClose: {
                const auto it = conns.find(s.conn);
                if (it == conns.end()) break;
                it->second->open = false;
                if (it->second->closed) it->second->closed();
                conns.erase(it);
                break;
            }
            case Tracer::Sent::kFrame: {
                const auto it = conns.find(s.conn);
                if (it == conns.end() || !it->second->receive) break;
                if (!s.timed) {
                    it->second->receive(s.frame);
                    break;
                }
                auto decoded = protocol::decode_message(s.frame);
                const std::string name =
                    decoded.is_ok() ? std::string{protocol::message_name(decoded.value())} : std::string{"?"};
                const std::uint64_t out0 = sent;
                const auto t0 = Clock::now();
                std::uint64_t allocs = 0;
                {
                    const cosoft::hot::HotScope scope{"bench.server", cosoft::hot::kUnbudgeted};
                    it->second->receive(s.frame);
                    allocs = scope.allocs();
                }
                fig.us_by_message[name].push_back(us_between(t0, Clock::now()));
                fig.allocs += allocs;
                ++fig.frames_in;
                fig.frames_out += sent - out0;
                break;
            }
        }
    }
    cosoft::hot::arm(false);
    if (timed_started) fig.journal_bytes = journal_bytes() - bytes_at_timed;
    for (auto& [id, ch] : conns) {
        ch->open = false;
        if (ch->closed) ch->closed();
    }
    manager.reset();
    return fig;
}

std::pair<double, double> time_journal(const Tracer& t, const std::string& dir, std::size_t per_sync) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    server::SessionJournalOptions o;
    o.dir = dir;
    o.fsync = server::FsyncPolicy::kBatch;
    o.compact_bytes = std::size_t{1} << 40;
    std::vector<double> append_us;
    std::vector<double> sync_us;
    {
        server::SessionJournal j{"standalone", o};
        if (!j.open().is_ok()) throw std::runtime_error("cannot open the standalone journal");
        std::size_t n = 0;
        for (const Tracer::Sent& s : t.sent) {
            if (s.kind != Tracer::Sent::kFrame || !s.timed) continue;
            const auto t0 = Clock::now();
            (void)j.append_frame(static_cast<std::uint32_t>(s.conn), s.frame, "frame");
            append_us.push_back(us_between(t0, Clock::now()));
            if (++n % per_sync == 0) {
                const auto t1 = Clock::now();
                (void)j.sync();
                sync_us.push_back(us_between(t1, Clock::now()));
            }
        }
    }
    fs::remove_all(dir);
    return {mean(append_us), mean(sync_us)};
}

std::pair<double, double> time_codec(const Tracer& t) {
    std::vector<const protocol::Frame*> frames;
    for (const Tracer::Sent& s : t.sent) {
        if (s.kind == Tracer::Sent::kFrame && s.timed) frames.push_back(&s.frame);
    }
    for (const protocol::Frame& f : t.received) frames.push_back(&f);
    double decode_us = 0;
    double encode_us = 0;
    std::size_t n = 0;
    for (const protocol::Frame* f : frames) {
        const auto t0 = Clock::now();
        auto d = protocol::decode_frame(*f);
        const auto t1 = Clock::now();
        if (!d.is_ok()) continue;
        const protocol::Frame again = protocol::encode_message(d.value().message);
        const auto t2 = Clock::now();
        if (again.size() == 0) continue;
        decode_us += us_between(t0, t1);
        encode_us += us_between(t1, t2);
        ++n;
    }
    if (n == 0) return {0, 0};
    return {encode_us / static_cast<double>(n), decode_us / static_cast<double>(n)};
}

double time_flight_recorder() {
    auto& rec = cosoft::obs::FlightRecorder::instance();
    rec.ensure_thread_registered();
    constexpr int kCalls = 200000;
    const auto t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
        rec.record(cosoft::obs::EventKind::kFrameIn, static_cast<std::uint64_t>(i), 64);
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count() / kCalls;
}

}  // namespace perfbench
