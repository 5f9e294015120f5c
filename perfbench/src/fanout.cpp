// command_fanout: §3.4 CoSendCommand broadcast. One sender, three
// receivers; payload sizes are 64 sizes spaced evenly on a log scale from
// 64 B to 64 KiB, so both per-message cost (the smallest frames) and bytes
// (the direct-receive path at 8 KiB and more) are on the path. Every round
// of 64 commands sends each size once, in an order drawn from the seed, so
// every round carries the same bytes whatever the seed. An op completes
// when the last receiver has the command.
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "cosoft/sim/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// FNV-style 64-bit word checksum of a command payload.
std::uint64_t checksum(const std::uint8_t* data, std::size_t n) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, data + i, 8);
        h = (h ^ w) * 0x100000001b3ULL;
    }
    for (; i < n; ++i) h = (h ^ data[i]) * 0x100000001b3ULL;
    return h;
}

using cosoft::client::CoApp;

constexpr std::size_t kReceivers = 3;
constexpr std::size_t kWindow = 4;     // commands in flight in the closed loop
constexpr std::size_t kPool = 64;      // payload sizes; contents follow the seed
constexpr std::size_t kHeader = 8;     // little-endian sequence number
constexpr const char* kCommand = "bench-payload";

class Fanout final : public Workload {
  public:
    Fanout(std::string run_dir, std::uint64_t seed, Tracer& tracer)
        : Workload(std::move(run_dir), seed, tracer) {
        cosoft::sim::Rng rng{seed ^ 0xfa40u};
        for (std::size_t i = 0; i < kPool; ++i) {
            Payload& p = pool_[i];
            const double bits = 6.0 + 10.0 * static_cast<double>(i) / (kPool - 1);
            p.bytes.resize(static_cast<std::size_t>(std::llround(std::exp2(bits))));
            for (std::size_t j = kHeader; j < p.bytes.size(); ++j) p.bytes[j] = static_cast<std::uint8_t>(rng.below(256));
            p.sum = checksum(p.bytes.data() + kHeader, p.bytes.size() - kHeader);
        }
        picks_rng_ = cosoft::sim::Rng{seed ^ 0x91c6u};
    }

    std::size_t lanes() const override { return kWindow; }

    void setup() override {
        daemon_ = std::make_unique<Daemon>(run_dir_, std::vector<std::string>{});
        daemon_->start();
        sender_ = std::make_unique<CoApp>("fanout", "sender", 1);
        sender_ch_ = join(mux_, daemon_->port(), *sender_, "fanout");
        for (std::size_t r = 0; r < kReceivers; ++r) {
            receivers_[r] = std::make_unique<CoApp>("fanout", "receiver" + std::to_string(r),
                                                    static_cast<cosoft::UserId>(r + 2));
            receivers_[r]->on_command(kCommand, [this, r](cosoft::InstanceId, std::span<const std::uint8_t> payload) {
                receive(r, payload);
            });
            receiver_ch_[r] = join(mux_, daemon_->port(), *receivers_[r], "fanout");
        }
        // Registration broadcasts settle before the first command.
        const bool ready = mux_.pump_until([&] { return sender_->pending_request_count() == 0; },
                                           Clock::now() + std::chrono::seconds(5));
        if (!ready) throw std::runtime_error("fanout set-up did not settle");
        sent_ = 0;
        received_.fill(0);
    }

    void teardown(bool final) override {
        for (std::size_t r = 0; r < kReceivers; ++r) {
            receivers_[r].reset();
            receiver_ch_[r].reset();
        }
        sender_.reset();
        sender_ch_.reset();
        if (final) {
            scrape_and_stop(*daemon_);
        } else {
            daemon_->kill_hard();
        }
        daemon_.reset();
    }

    std::size_t next_lane() override { return sent_ % kWindow; }

    std::uint64_t issue() override {
        const std::size_t pick = pick_for(sent_);
        std::vector<std::uint8_t> payload = pool_[pick].bytes;
        const std::uint64_t seq = sent_;
        std::memcpy(payload.data(), &seq, kHeader);
        lane_seq_[seq % kWindow] = seq;
        ++sent_;
        const std::uint64_t useful = payload.size() * kReceivers;
        const SpanScope span{tracer_, "client.send_command"};
        sender_->send_command(kCommand, std::move(payload));
        return useful;
    }

    int state(std::size_t lane) override {
        for (std::uint64_t got : received_) {
            if (got <= lane_seq_[lane]) return 0;
        }
        return 1;
    }

    void verify(Outcome& out) override {
        for (std::size_t r = 0; r < kReceivers; ++r) {
            const std::string who = "receiver" + std::to_string(r);
            out.check(received_[r] == sent_, who + ": received " + std::to_string(received_[r]) + " of " +
                                                 std::to_string(sent_) + " commands");
            out.check(receivers_[r]->stats().commands_received == sent_, who + ": command count mismatch");
        }
        out.check(disorder_ == 0, std::to_string(disorder_) + " commands out of order or duplicated");
        out.check(corrupt_ == 0, std::to_string(corrupt_) + " payload checksums differ from the generator's");
    }

  private:
    struct Payload {
        std::vector<std::uint8_t> bytes;
        std::uint64_t sum = 0;
    };

    /// Pool index of command `seq`: each round of kPool commands is a
    /// seeded permutation of the pool.
    std::size_t pick_for(std::uint64_t seq) {
        while (picks_.size() <= seq) {
            std::array<std::uint32_t, kPool> round;
            for (std::uint32_t i = 0; i < kPool; ++i) round[i] = i;
            for (std::size_t i = kPool - 1; i > 0; --i) std::swap(round[i], round[picks_rng_.below(i + 1)]);
            picks_.insert(picks_.end(), round.begin(), round.end());
        }
        return picks_[seq];
    }

    void receive(std::size_t r, std::span<const std::uint8_t> payload) {
        std::uint64_t seq = ~0ULL;
        if (payload.size() > kHeader) std::memcpy(&seq, payload.data(), kHeader);
        if (seq != received_[r]) {
            ++disorder_;
            return;
        }
        const Payload& expect = pool_[pick_for(seq)];
        if (payload.size() != expect.bytes.size() ||
            checksum(payload.data() + kHeader, payload.size() - kHeader) != expect.sum) {
            ++corrupt_;
        }
        ++received_[r];
    }

    std::array<Payload, kPool> pool_;
    cosoft::sim::Rng picks_rng_{0};
    std::vector<std::uint32_t> picks_;

    std::unique_ptr<Daemon> daemon_;
    std::unique_ptr<CoApp> sender_;
    std::shared_ptr<BenchChannel> sender_ch_;
    std::array<std::unique_ptr<CoApp>, kReceivers> receivers_;
    std::array<std::shared_ptr<BenchChannel>, kReceivers> receiver_ch_;

    std::uint64_t sent_ = 0;
    std::array<std::uint64_t, kReceivers> received_{};
    std::array<std::uint64_t, kWindow> lane_seq_{};
    std::uint64_t disorder_ = 0;
    std::uint64_t corrupt_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fanout(const std::string& run_dir, std::uint64_t seed, Tracer& tracer) {
    return std::make_unique<Fanout>(run_dir, seed, tracer);
}

}  // namespace perfbench
