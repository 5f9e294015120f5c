// classroom_coupled: §3.2 coupled actions in the paper's classroom. One
// teacher and three students; three coupling groups (answer field,
// parameter slider, scratch canvas) each join all four members. An op is one
// callback action of sim::generate_workload; at most one op is in flight
// per group, so the floor lock never has cause to deny.
#include <array>
#include <deque>
#include <stdexcept>

#include "cosoft/apps/classroom.hpp"
#include "cosoft/sim/rng.hpp"
#include "cosoft/sim/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cosoft::client::CoApp;
using cosoft::toolkit::EventType;
namespace apps = cosoft::apps;

constexpr std::size_t kMembers = 4;  // teacher + three students
constexpr std::size_t kGroups = 3;   // answer, param, scratch
constexpr std::uint32_t kClearEvery = 8;  // the scratch canvas is wiped every 8th op on it

const char* const kTeacherPaths[kGroups] = {"board/public/answer", "board/public/param", "board/public/scratch"};
const char* const kStudentPaths[kGroups] = {apps::StudentApp::kAnswer, apps::StudentApp::kParam,
                                            apps::StudentApp::kScratch};

struct Op {
    std::uint32_t member = 0;
    std::uint32_t group = 0;
    EventType type = EventType::kValueChanged;
    std::string text;    // answer text / stroke
    double real = 0;     // slider value
};

class Classroom final : public Workload {
  public:
    using Workload::Workload;

    std::size_t lanes() const override { return kGroups; }

    void setup() override {
        daemon_ = std::make_unique<Daemon>(run_dir_, std::vector<std::string>{});
        daemon_->start();
        for (std::size_t m = 0; m < kMembers; ++m) {
            apps_[m] = std::make_unique<CoApp>("classroom", m == 0 ? "teacher" : "student" + std::to_string(m),
                                               static_cast<cosoft::UserId>(m + 1));
            if (m == 0) {
                teacher_ = std::make_unique<apps::TeacherApp>(*apps_[0]);
                // The public area mirrors a student exercise: add the
                // parameter slider so all three groups span all members.
                auto* slider = apps_[0]
                                   ->ui()
                                   .find(apps::TeacherApp::kPublicArea)
                                   ->add_child(cosoft::toolkit::WidgetClass::kSlider, "param")
                                   .value();
                (void)slider->set_attribute("min", 0.0);
                (void)slider->set_attribute("max", 10.0);
            } else {
                students_[m] = std::make_unique<apps::StudentApp>(*apps_[m], "exercise " + std::to_string(m));
            }
            for (std::size_t g = 0; g < kGroups; ++g) {
                auto count = [this, m, g](cosoft::toolkit::Widget&, const cosoft::toolkit::Event&) { ++hits_[m][g]; };
                auto* w = apps_[m]->ui().find(path(m, g));
                if (g == 2) {
                    w->add_callback(EventType::kStroke, count);
                    w->add_callback(EventType::kCleared, count);
                } else {
                    w->add_callback(EventType::kValueChanged, count);
                }
            }
            channels_[m] = join(mux_, daemon_->port(), *apps_[m], "classroom");
        }
        for (std::size_t g = 0; g < kGroups; ++g) {
            for (std::size_t s = 1; s < kMembers; ++s) {
                await(mux_,
                      [&](CoApp::Done done) {
                          apps_[0]->couple_synced(path(0, g), apps_[s]->ref(path(s, g)),
                                                  cosoft::protocol::MergeMode::kFlexible, std::move(done));
                      },
                      "couple_synced");
            }
        }
        const bool coupled = mux_.pump_until(
            [&] {
                for (std::size_t m = 0; m < kMembers; ++m) {
                    for (std::size_t g = 0; g < kGroups; ++g) {
                        if (apps_[m]->coupled_with(path(m, g)).size() != kMembers - 1) return false;
                    }
                }
                return true;
            },
            Clock::now() + std::chrono::seconds(10));
        if (!coupled) throw std::runtime_error("classroom groups did not form");
        // Expected group values start from the teacher's synced state.
        expected_answer_ = apps_[0]->ui().find(path(0, 0))->text("value");
        expected_param_ = apps_[0]->ui().find(path(0, 1))->real("value");
        expected_strokes_ = apps_[0]->ui().find(path(0, 2))->text_list("strokes");
        for (auto& h : hits_) h.fill(0);
        completed_by_.fill(0);
    }

    void teardown(bool final) override {
        for (auto& f : inflight_) f = {};
        for (std::size_t m = 0; m < kMembers; ++m) {
            students_[m].reset();
            apps_[m].reset();
            channels_[m].reset();
        }
        teacher_.reset();
        if (final) {
            scrape_and_stop(*daemon_);
        } else {
            daemon_->kill_hard();
        }
        daemon_.reset();
    }

    std::size_t next_lane() override { return next_op().group; }

    std::uint64_t issue() override {
        const Op o = next_op();
        ops_.pop_front();
        Inflight& f = inflight_[o.group];
        f = Inflight{};
        f.active = true;
        f.op = o;
        for (std::size_t m = 0; m < kMembers; ++m) f.target[m] = hits_[m][o.group] + 1;
        CoApp& app = *apps_[o.member];
        cosoft::toolkit::Widget* w = app.ui().find(path(o.member, o.group));
        cosoft::toolkit::Event e = o.type == EventType::kCleared ? w->make_event(EventType::kCleared)
                                   : o.group == 1                ? w->make_event(o.type, o.real)
                                                                 : w->make_event(o.type, o.text);
        {
            const SpanScope span{tracer_, "client.emit"};
            app.emit(path(o.member, o.group), std::move(e), [&f](const cosoft::Status& st) {
                if (!st.is_ok()) f.failed = true;
            });
        }
        const std::uint64_t body = o.group == 1 ? sizeof(double) : o.text.size();
        return body * (kMembers - 1);
    }

    int state(std::size_t lane) override {
        Inflight& f = inflight_[lane];
        if (!f.active) return 1;
        if (f.failed) {
            f.active = false;
            return -1;
        }
        for (std::size_t m = 0; m < kMembers; ++m) {
            if (m == f.op.member) continue;
            if (hits_[m][lane] < f.target[m]) return 0;
            if (apps_[m]->is_locked(path(m, lane))) return 0;
        }
        // Completed: every partner re-executed the action and saw the unlock.
        f.active = false;
        ++completed_by_[f.op.member];
        switch (lane) {
            case 0: expected_answer_ = f.op.text; break;
            case 1: expected_param_ = f.op.real; break;
            default:
                if (f.op.type == EventType::kCleared) {
                    expected_strokes_.clear();
                } else {
                    expected_strokes_.push_back(f.op.text);
                }
        }
        return 1;
    }

    void verify(Outcome& out) override {
        std::uint64_t total = 0;
        for (std::uint64_t c : completed_by_) total += c;
        for (std::size_t m = 0; m < kMembers; ++m) {
            CoApp& app = *apps_[m];
            const std::string who = app.app_name() + "#" + std::to_string(m);
            out.check(app.ui().find(path(m, 0))->text("value") == expected_answer_, who + ": answer diverged");
            out.check(app.ui().find(path(m, 1))->real("value") == expected_param_, who + ": slider diverged");
            out.check(app.ui().find(path(m, 2))->text_list("strokes") == expected_strokes_,
                      who + ": scratch canvas diverged");
            out.check(app.stats().events_reexecuted == total - completed_by_[m],
                      who + ": re-executed " + std::to_string(app.stats().events_reexecuted) + " actions, expected " +
                          std::to_string(total - completed_by_[m]));
            out.check(app.stats().locks_denied == 0, who + ": lock denied");
            out.check(app.pending_emit_count() == 0 && app.pending_request_count() == 0,
                      who + ": emits or requests left pending");
        }
    }

  private:
    struct Inflight {
        bool active = false;
        bool failed = false;
        Op op;
        std::array<std::uint64_t, kMembers> target{};
    };

    static const char* path(std::size_t member, std::size_t group) {
        return member == 0 ? kTeacherPaths[group] : kStudentPaths[group];
    }

    /// The next op of the seeded stream: the callback actions of successive
    /// generate_workload() chunks (UI-local actions never leave the client).
    const Op& next_op() {
        while (ops_.empty()) refill();
        return ops_.front();
    }

    void refill() {
        cosoft::sim::WorkloadSpec spec;
        spec.users = kMembers;
        spec.objects_per_user = kGroups;
        spec.actions_per_user = 256;
        spec.semantic_fraction = 0;
        spec.ui_local_fraction = 0.3;
        spec.seed = seed_ * 1000003ULL + chunk_++;
        cosoft::sim::Rng rng{spec.seed ^ 0xc1a55ULL};
        for (const auto& a : cosoft::sim::generate_workload(spec)) {
            if (a.kind != cosoft::sim::ActionKind::kCallback) continue;
            Op o;
            o.member = a.user;
            o.group = a.object;
            switch (o.group) {
                case 0:
                    o.text = "answer-" + std::to_string(rng.below(1000000)) + std::string(8 + rng.below(33), 'x');
                    break;
                case 1:
                    o.real = static_cast<double>(rng.below(1001)) / 100.0;
                    break;
                default:
                    if (++strokes_drawn_ % kClearEvery == 0) {
                        o.type = EventType::kCleared;
                    } else {
                        o.type = EventType::kStroke;
                        o.text = "stroke(" + std::to_string(rng.below(640)) + "," + std::to_string(rng.below(480)) +
                                 ")" + std::string(8 + rng.below(41), '.');
                    }
            }
            ops_.push_back(std::move(o));
        }
    }

    std::unique_ptr<Daemon> daemon_;
    std::array<std::unique_ptr<CoApp>, kMembers> apps_;
    std::array<std::shared_ptr<BenchChannel>, kMembers> channels_;
    std::unique_ptr<apps::TeacherApp> teacher_;
    std::array<std::unique_ptr<apps::StudentApp>, kMembers> students_;
    std::array<std::array<std::uint64_t, kGroups>, kMembers> hits_{};
    std::array<Inflight, kGroups> inflight_{};
    std::array<std::uint64_t, kMembers> completed_by_{};

    std::deque<Op> ops_;
    std::uint64_t chunk_ = 0;
    std::uint64_t strokes_drawn_ = 0;

    std::string expected_answer_;
    double expected_param_ = 0;
    std::vector<std::string> expected_strokes_;
};

}  // namespace

std::unique_ptr<Workload> make_classroom(const std::string& run_dir, std::uint64_t seed, Tracer& tracer) {
    return std::make_unique<Classroom>(run_dir, seed, tracer);
}

}  // namespace perfbench
