// tori_durable: cooperative TORI (§4) on a journaled session. Two coupled
// TORI users run a seeded mix of set_operator, set_operand, invoke (each
// replica re-runs the query on its own database) and copy_to followed by
// undo. Every 250 ops a third connection joins late through the
// SyncBegin..SyncEnd catch-up, copies the founders' query form, couples in
// for 50 ops and leaves again.
//
// Set-up: before the first timed set-up, an untimed prologue drives a
// seeded script through a journaling cosoftd, ends it with a copy_to whose
// undo is left pending, and SIGKILLs the daemon; the journal is kept as a
// template. Each timed set-up restores that journal and restarts cosoftd on
// it, so setup_s covers recovery replay, the founders' resume-by-identity
// and their coupling groups coming back. The first op after each recovery
// is the pending undo: only the recovered journal holds the state it
// restores.
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "cosoft/apps/tori.hpp"
#include "cosoft/db/database.hpp"
#include "cosoft/sim/rng.hpp"
#include "cosoft/toolkit/snapshot.hpp"
#include "layers.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace db = cosoft::db;
using cosoft::client::CoApp;
using cosoft::apps::ToriApp;

constexpr std::uint64_t kPrologueOps = 2000;
constexpr std::uint64_t kJoinEvery = 250;
constexpr std::uint64_t kJoinedOps = 50;
const std::vector<std::string> kAttributes = {"author", "venue", "year"};
const std::vector<std::string> kAuthors = {"Zhao",      "Hoppe",     "Stefik", "Ellis",     "Gibbs",   "Rein",
                                           "Greenberg", "Patterson", "Dewan",  "Choudhary", "Lauwers", "Baloian"};
const std::vector<std::string> kVenues = {"CSCW", "CHI", "UIST", "ICDCS", "InterCHI", "TOIS"};

struct DbSpec {
    const char* name;
    std::size_t rows;
    std::uint64_t salt;
};
// Database sizes are fixed; only their contents follow the seed.
constexpr DbSpec kDbs[3] = {{"gmd-library", 1200, 0xa11ce}, {"uni-library", 800, 0xb0b}, {"carol-library", 600, 0xca401}};

enum class Kind : std::uint8_t { kOperator, kOperand, kInvoke, kCopy, kUndo };

struct Op {
    Kind kind = Kind::kInvoke;
    int member = 0;  ///< emitter; for kCopy the source; for kUndo the destination
    std::size_t attr = 0;
    std::string value;
};

/// The query form as the seeded script leaves it.
struct Form {
    std::vector<std::string> ops = std::vector<std::string>(kAttributes.size(), "substring");
    std::vector<std::string> operands = std::vector<std::string>(kAttributes.size());
};

db::Query query_of(const Form& f) {
    db::Query q;
    q.table = "papers";
    for (std::size_t i = 0; i < kAttributes.size(); ++i) {
        q.conditions.push_back({kAttributes[i], db::compare_op_from_string(f.ops[i]).value(), f.operands[i]});
    }
    return q;
}

class Tori final : public Workload {
  public:
    Tori(std::string run_dir, std::uint64_t seed, Tracer& tracer)
        : Workload(std::move(run_dir), seed, tracer), rng_(seed ^ 0x7041u) {
        for (int m = 0; m < 3; ++m) {
            reference_dbs_.push_back(db::make_literature_db(kDbs[m].name, kDbs[m].rows, seed ^ kDbs[m].salt));
        }
    }

    ~Tori() override {
        joiner_.reset();
        joiner_app_.reset();
        joiner_ch_.reset();
        for (int m = 0; m < 2; ++m) {
            tori_[m].reset();
            apps_[m].reset();
            channels_[m].reset();
        }
    }

    std::size_t lanes() const override { return 1; }

    void before_setup() override {
        if (!prepared_) prologue();
        fs::remove_all(journal_dir());
        fs::copy(template_dir(), journal_dir(), fs::copy_options::recursive);
    }

    void setup() override {
        daemon_ = std::make_unique<Daemon>(run_dir_, journal_flags());
        daemon_->start();
        for (int m = 0; m < 2; ++m) {
            channels_[m] = join(mux_, daemon_->port(), *apps_[m], "tori");
        }
        const bool resumed = mux_.pump_until(
            [&] {
                return members(*apps_[0]) == 2 && members(*apps_[1]) == 2;
            },
            Clock::now() + std::chrono::seconds(10));
        if (!resumed) throw std::runtime_error("recovered session did not restore the coupling group");
        for (int m = 0; m < 2; ++m) {
            if (apps_[m]->instance() != original_ids_[m]) {
                recovery_errors_.push_back(apps_[m]->app_name() + " did not resume its instance id");
            }
            // Resuming must leave the client's own widgets as they were.
            if (!form_matches(*apps_[m])) recovery_errors_.push_back("a founder's form changed when it resumed");
        }
        // The first op is the undo of the prologue's last copy.
        pending_undo_ = crash_copy_dest_;
        undo_restores_ = crash_copy_before_;
        undo_bytes_ = encoded_size(crash_copy_before_);
        recovering_ = true;
    }

    void teardown(bool final) override {
        leave_joiner();
        // The next session restarts from the template journal, which has no
        // record of a copy the stream made since: its undo is dropped.
        // A set-up-only session never issued the pre-crash undo either.
        pending_undo_ = -1;
        recovering_ = false;
        if (final) {
            for (int m = 0; m < 2; ++m) channels_[m]->close();
            scrape_and_stop(*daemon_);
        } else {
            daemon_->kill_hard();
        }
        // The founders outlive the daemon, as clients outlive a server
        // crash; they reconnect at the next set-up.
        (void)mux_.pump_until([&] { return !apps_[0]->online() && !apps_[1]->online(); },
                              Clock::now() + std::chrono::seconds(5));
        daemon_.reset();
        inflight_ = {};
        js_ = JoinState::kIdle;
    }

    std::size_t next_lane() override { return 0; }

    std::uint64_t issue() override { return issue_op(next_op()); }

    std::uint64_t issue_op(const Op& o) {
        inflight_ = Inflight{};
        inflight_.active = true;
        inflight_.op = o;
        const int other = 1 - o.member;
        std::uint64_t useful = 0;
        auto fail_on_error = [this](const cosoft::Status& st) {
            if (!st.is_ok()) {
                inflight_.failed = true;
                std::printf("op failed: kind %d after %llu ops, join state %d, joins %llu: %s\n",
                            static_cast<int>(inflight_.op.kind), static_cast<unsigned long long>(issued_),
                            static_cast<int>(js_), static_cast<unsigned long long>(joins_), st.message().c_str());
            }
            inflight_.acked = true;
        };
        if (o.kind == Kind::kCopy || o.kind == Kind::kUndo) {
            const int dest = o.kind == Kind::kCopy ? other : o.member;
            inflight_.dest = dest;
            inflight_.applies = apps_[dest]->stats().states_applied + 1;
            if (o.kind == Kind::kCopy) {
                const cosoft::toolkit::Widget& src = *apps_[o.member]->ui().find(ToriApp::kResultForm);
                const cosoft::toolkit::Widget& dst = *apps_[dest]->ui().find(ToriApp::kResultForm);
                cosoft::toolkit::UiState state;
                {
                    const SpanScope span{tracer_, "toolkit.snapshot"};
                    state = cosoft::toolkit::snapshot(src);
                }
                cosoft::toolkit::UiState before = cosoft::toolkit::snapshot(dst, cosoft::toolkit::SnapshotScope::kAll);
                useful = encoded_size(state);
                undo_bytes_ = encoded_size(before);
                undo_restores_ = before;
                if (tracer_.enabled && tracer_.timed_phase) copies_.push_back({std::move(state), std::move(before)});
                const SpanScope span{tracer_, "client.copy_to"};
                apps_[o.member]->copy_to(ToriApp::kResultForm, apps_[dest]->ref(ToriApp::kResultForm),
                                         cosoft::protocol::MergeMode::kFlexible, fail_on_error);
            } else {
                useful = undo_bytes_;
                const SpanScope span{tracer_, "client.undo"};
                apps_[o.member]->undo(ToriApp::kResultForm, fail_on_error);
            }
            return useful;
        }

        // Coupled emits: every other replica re-executes.
        for (int m = 0; m < 3; ++m) {
            CoApp* app = replica(m);
            inflight_.target[m] = app == nullptr ? 0 : app->stats().events_reexecuted + (m == o.member ? 0 : 1);
        }
        ToriApp& t = *tori_[o.member];
        const std::size_t partners = joiner_coupled() ? 2 : 1;
        const SpanScope span{tracer_, "client.emit"};
        switch (o.kind) {
            case Kind::kOperator:
                t.set_operator(kAttributes[o.attr], db::compare_op_from_string(o.value).value(), fail_on_error);
                return o.value.size() * partners;
            case Kind::kOperand:
                t.set_operand(kAttributes[o.attr], o.value, fail_on_error);
                return o.value.size() * partners;
            default:
                t.invoke(fail_on_error);
                return 0;
        }
    }

    int state(std::size_t /*lane*/) override {
        Inflight& f = inflight_;
        if (!f.active) return 1;
        if (f.failed) {
            f.active = false;
            return -1;
        }
        if (!f.acked) return 0;
        const Op& o = f.op;
        if (o.kind == Kind::kCopy || o.kind == Kind::kUndo) {
            if (apps_[f.dest]->stats().states_applied < f.applies) return 0;
            if (o.kind == Kind::kUndo) {
                // The destination is back at the state the client saw
                // before the copy (after a recovery: a copy made before the
                // crash, known to the daemon only through its journal).
                const auto now = cosoft::toolkit::snapshot(*apps_[f.dest]->ui().find(ToriApp::kResultForm),
                                                           cosoft::toolkit::SnapshotScope::kAll);
                if (!(now == undo_restores_)) {
                    recovery_errors_.push_back(recovering_ ? "undo after recovery did not restore the pre-crash state"
                                                           : "undo did not restore the state before its copy");
                }
                if (recovering_) ++recovered_undos_;
                recovering_ = false;
            }
        } else {
            for (int m = 0; m < 3; ++m) {
                if (m == o.member) continue;
                CoApp* app = replica(m);
                if (app == nullptr || f.target[m] == 0) continue;
                if (app->stats().events_reexecuted < f.target[m] || app->is_locked(ToriApp::kRoot)) return 0;
            }
        }
        f.active = false;
        apply_to_model(o);
        return 1;
    }

    bool hold() override {
        progress();
        return js_ == JoinState::kWantCouple || js_ == JoinState::kCoupling || js_ == JoinState::kWantLeave ||
               js_ == JoinState::kLeaving;
    }

    void after_issue() override {
        ++issued_;
        if (js_ == JoinState::kIdle && issued_ % kJoinEvery == 0) start_join();
        if (js_ == JoinState::kCoupled && issued_ - joined_at_ >= kJoinedOps) js_ = JoinState::kWantLeave;
    }

    void progress() override {
        switch (js_) {
            case JoinState::kConnecting:
                if (!joiner_app_->online()) return;
                catchup_ms_.push_back(us_between(join_started_, Clock::now()) / 1000.0);
                js_ = JoinState::kWantCouple;
                [[fallthrough]];
            case JoinState::kWantCouple:
                if (inflight_.active) return;
                // Initial synchronization by state, then coupling (§3.2):
                // the couple goes out once the copy has been applied.
                couple_done_ = false;
                joiner_app_->copy_from(
                    apps_[0]->ref(ToriApp::kQueryForm), ToriApp::kQueryForm, cosoft::protocol::MergeMode::kStrict,
                    [this](const cosoft::Status& st) {
                        if (!st.is_ok()) join_errors_.push_back("late joiner copy: " + st.message());
                        joiner_app_->couple(ToriApp::kRoot, apps_[0]->ref(ToriApp::kRoot),
                                            [this](const cosoft::Status& st2) {
                                                if (!st2.is_ok()) {
                                                    join_errors_.push_back("late joiner couple: " + st2.message());
                                                }
                                                couple_done_ = true;
                                            });
                    });
                js_ = JoinState::kCoupling;
                return;
            case JoinState::kCoupling:
                if (!couple_done_ || group_size() != 3) return;
                if (!form_matches(*joiner_app_)) join_errors_.push_back("late joiner's form differs after catch-up");
                js_ = JoinState::kCoupled;
                joined_at_ = issued_;
                ++joins_;
                return;
            case JoinState::kWantLeave:
                if (inflight_.active) return;
                if (!form_matches(*joiner_app_)) join_errors_.push_back("late joiner diverged while coupled");
                leave_joiner();
                js_ = JoinState::kLeaving;
                [[fallthrough]];
            case JoinState::kLeaving:
                if (members(*apps_[0]) == 2 && members(*apps_[1]) == 2) {
                    js_ = JoinState::kIdle;
                }
                return;
            default:
                return;
        }
    }

    void verify(Outcome& out) override {
        for (const auto& e : recovery_errors_) out.check(false, e);
        for (const auto& e : join_errors_) out.check(false, e);
        out.check(joins_ > 0, "no late joiner completed its catch-up");
        out.check(recovered_undos_ > 0, "no undo of the pre-crash copy was checked after a recovery");
        for (int m = 0; m < 2; ++m) {
            CoApp& app = *apps_[m];
            const std::string who = app.app_name() + "/" + std::to_string(m);
            out.check(form_matches(app), who + ": query form differs from the script");
            out.check(app.stats().locks_denied == 0, who + ": lock denied");
            out.check(app.stats().apply_errors == 0, who + ": state apply failed");
            out.check(app.pending_emit_count() == 0 && app.pending_request_count() == 0, who + ": requests left pending");
            if (invoked_) {
                // The replica's result set against a direct execution of the
                // script's last query on an independently built database.
                auto direct = reference_dbs_[m].execute(query_of(last_invoked_));
                const auto& got = tori_[m]->last_result();
                out.check(direct.is_ok() && direct.value().columns == got.columns && direct.value().rows == got.rows &&
                              direct.value().total_matches == got.total_matches,
                          who + ": last_result differs from a direct query of its database");
            }
        }
    }

    void layer_metrics(Outcome& out) override {
        out.metrics.push_back({"server.catchup_ms", quantile(catchup_ms_, 0.5), "ms"});
        // toolkit: the snapshot timed at each copy; merges replayed on a
        // scratch widget tree with the recorded states.
        out.metrics.push_back({"toolkit.snapshot_us", mean(tracer_.durations_us("toolkit.snapshot")), "us"});
        out.metrics.push_back({"toolkit.merge_us", time_merges(copies_), "us"});
        // db: every invoke of the traced phase, once per replica database.
        std::vector<double> q_us;
        for (const Form& f : invoked_forms_) {
            const db::Query q = query_of(f);
            for (int m = 0; m < 2; ++m) {
                const auto t0 = Clock::now();
                auto r = reference_dbs_[m].execute(q);
                q_us.push_back(us_between(t0, Clock::now()));
                if (!r.is_ok()) out.check(false, "recorded query failed on a reference database");
            }
        }
        out.metrics.push_back({"db.query_us", mean(q_us), "us"});
    }

    /// Journal template and the live journal directory the daemon uses.
    [[nodiscard]] std::string template_dir() const { return run_dir_ + "/journal-template"; }
    [[nodiscard]] std::string journal_dir() const { return run_dir_ + "/journal"; }

  private:
    enum class JoinState : std::uint8_t { kIdle, kConnecting, kWantCouple, kCoupling, kCoupled, kWantLeave, kLeaving };

    struct Inflight {
        bool active = false;
        bool failed = false;
        bool acked = false;
        Op op;
        int dest = 0;
        std::uint64_t applies = 0;  ///< dest states_applied that completes a copy or undo
        std::uint64_t target[3] = {0, 0, 0};
    };

    std::vector<std::string> journal_flags() const {
        // The journal sits in the benchmark's own run directory on the
        // host's disk; fsync there would time the shared virtual disk, so
        // the daemon leaves durability to the page cache (see README).
        return {"--journal-dir", journal_dir(), "--journal-fsync", "never"};
    }

    /// Untimed: build the founders, drive the seeded prologue through a
    /// journaling daemon, SIGKILL it, keep the journal as the template.
    void prologue() {
        fs::remove_all(journal_dir());
        fs::create_directories(journal_dir());
        daemon_ = std::make_unique<Daemon>(run_dir_, journal_flags());
        daemon_->start();
        const char* names[2] = {"alice", "bob"};
        for (int m = 0; m < 2; ++m) {
            apps_[m] = std::make_unique<CoApp>("tori", names[m], static_cast<cosoft::UserId>(m + 1));
            tori_[m] = std::make_unique<ToriApp>(
                *apps_[m], db::make_literature_db(kDbs[m].name, kDbs[m].rows, seed_ ^ kDbs[m].salt), kAttributes);
            channels_[m] = join(mux_, daemon_->port(), *apps_[m], "tori");
            original_ids_[m] = apps_[m]->instance();
        }
        await(mux_, [&](CoApp::Done done) { tori_[0]->couple_full(apps_[1]->ref(ToriApp::kRoot), std::move(done)); },
              "couple_full");
        if (!mux_.pump_until([&] { return group_size() == 2; }, Clock::now() + std::chrono::seconds(5))) {
            throw std::runtime_error("TORI founders did not couple");
        }
        auto run_op = [&](const Op& o) {
            issue_op(o);
            if (!mux_.pump_until([&] { return state(0) != 0; }, Clock::now() + std::chrono::seconds(10))) {
                throw std::runtime_error("prologue op stalled");
            }
            if (inflight_.failed) throw std::runtime_error("prologue op failed");
        };
        // The script never stops between a copy and its undo, and then ends
        // with one copy whose undo is left for after the crash.
        for (std::uint64_t i = 0; i < kPrologueOps || pending_undo_ >= 0; ++i) run_op(next_op());
        Op last;
        last.kind = Kind::kCopy;
        last.member = 0;
        run_op(last);
        crash_copy_dest_ = 1;
        crash_copy_before_ = undo_restores_;
        // Let the daemon journal the script's last frames: a registry round
        // trip from each founder, then a pause, before the SIGKILL.
        for (int m = 0; m < 2; ++m) {
            bool replied = false;
            apps_[m]->query_registry([&](const auto&) { replied = true; });
            (void)mux_.pump_until([&] { return replied; }, Clock::now() + std::chrono::seconds(5));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        daemon_->kill_hard();
        (void)mux_.pump_until([&] { return !apps_[0]->online() && !apps_[1]->online(); },
                              Clock::now() + std::chrono::seconds(5));
        daemon_.reset();
        fs::remove_all(template_dir());
        fs::copy(journal_dir(), template_dir(), fs::copy_options::recursive);
        prepared_ = true;
    }

    Op next_op() {
        Op o;
        if (pending_undo_ >= 0) {
            o.kind = Kind::kUndo;
            o.member = pending_undo_;
            pending_undo_ = -1;
            return o;
        }
        o.member = static_cast<int>(rng_.below(2));
        o.attr = rng_.below(kAttributes.size());
        const double r = rng_.uniform01();
        if (r < 0.30) {
            o.kind = Kind::kOperator;
            static const std::vector<std::string> kText = {"equals", "substring", "prefix"};
            static const std::vector<std::string> kYear = {"equals", "less", "greater-eq", "not-equals"};
            const auto& pool = o.attr == 2 ? kYear : kText;
            o.value = pool[rng_.below(pool.size())];
        } else if (r < 0.65) {
            o.kind = Kind::kOperand;
            if (o.attr == 2) {
                o.value = std::to_string(1985 + rng_.below(10));
            } else {
                const auto& pool = o.attr == 0 ? kAuthors : kVenues;
                o.value = pool[rng_.below(pool.size())];
                if (rng_.chance(0.3)) o.value.resize(3);
            }
        } else if (r < 0.85) {
            o.kind = Kind::kInvoke;
        } else {
            o.kind = Kind::kCopy;
            pending_undo_ = 1 - o.member;
        }
        return o;
    }

    void apply_to_model(const Op& o) {
        switch (o.kind) {
            case Kind::kOperator: form_.ops[o.attr] = o.value; break;
            case Kind::kOperand: form_.operands[o.attr] = o.value; break;
            case Kind::kInvoke:
                last_invoked_ = form_;
                invoked_ = true;
                if (tracer_.enabled && tracer_.timed_phase) invoked_forms_.push_back(form_);
                break;
            default: break;
        }
    }

    [[nodiscard]] bool form_matches(const CoApp& app) const {
        for (std::size_t i = 0; i < kAttributes.size(); ++i) {
            const auto* op = app.ui().find(ToriApp::operator_menu_path(kAttributes[i]));
            const auto* field = app.ui().find(ToriApp::operand_field_path(kAttributes[i]));
            if (op == nullptr || field == nullptr) return false;
            if (op->text("selection") != form_.ops[i] || field->text("value") != form_.operands[i]) return false;
        }
        return true;
    }

    static std::uint64_t encoded_size(const cosoft::toolkit::UiState& s) {
        cosoft::ByteWriter w;
        cosoft::toolkit::encode(w, s);
        return w.data().size();
    }

    /// Size of the TORI coupling group as `app` sees it.
    static std::size_t members(const CoApp& app) { return app.coupled_with(ToriApp::kRoot).size() + 1; }

    CoApp* replica(int m) {
        if (m < 2) return apps_[m].get();
        return joiner_coupled() ? joiner_app_.get() : nullptr;
    }
    [[nodiscard]] bool joiner_coupled() const noexcept {
        return js_ == JoinState::kCoupled || js_ == JoinState::kWantLeave;
    }
    std::size_t group_size() {
        std::size_t n = std::min(members(*apps_[0]), members(*apps_[1]));
        if (js_ == JoinState::kCoupling && joiner_app_) n = std::min(n, members(*joiner_app_));
        return n;
    }

    void start_join() {
        joiner_app_ = std::make_unique<CoApp>("tori", "carol", 3);
        joiner_ = std::make_unique<ToriApp>(*joiner_app_,
                                            db::make_literature_db(kDbs[2].name, kDbs[2].rows, seed_ ^ kDbs[2].salt),
                                            kAttributes);
        join_started_ = Clock::now();
        joiner_ch_ = mux_.connect(daemon_->port());
        joiner_app_->connect(joiner_ch_, "tori");
        js_ = JoinState::kConnecting;
    }

    void leave_joiner() {
        joiner_.reset();
        joiner_app_.reset();
        joiner_ch_.reset();
    }

    cosoft::sim::Rng rng_;
    std::vector<db::Database> reference_dbs_;
    bool prepared_ = false;
    std::unique_ptr<Daemon> daemon_;
    std::unique_ptr<CoApp> apps_[2];
    std::unique_ptr<ToriApp> tori_[2];
    std::shared_ptr<BenchChannel> channels_[2];
    cosoft::InstanceId original_ids_[2] = {0, 0};

    Inflight inflight_;
    int pending_undo_ = -1;
    std::uint64_t undo_bytes_ = 0;
    cosoft::toolkit::UiState undo_restores_;  ///< what the pending undo must bring back
    int crash_copy_dest_ = -1;
    cosoft::toolkit::UiState crash_copy_before_;
    bool recovering_ = false;  ///< the pending undo is the pre-crash one
    std::uint64_t recovered_undos_ = 0;
    std::uint64_t issued_ = 0;
    Form form_;
    Form last_invoked_;
    bool invoked_ = false;

    JoinState js_ = JoinState::kIdle;
    std::unique_ptr<CoApp> joiner_app_;
    std::unique_ptr<ToriApp> joiner_;
    std::shared_ptr<BenchChannel> joiner_ch_;
    Clock::time_point join_started_{};
    std::uint64_t joined_at_ = 0;
    std::uint64_t joins_ = 0;
    bool couple_done_ = false;

    std::vector<std::string> recovery_errors_;
    std::vector<std::string> join_errors_;
    std::vector<double> catchup_ms_;
    std::vector<Form> invoked_forms_;
    std::vector<CopyRecord> copies_;
};

}  // namespace

std::unique_ptr<Workload> make_tori(const std::string& run_dir, std::uint64_t seed, Tracer& tracer) {
    return std::make_unique<Tori>(run_dir, seed, tracer);
}

}  // namespace perfbench
