// Per-layer figures of the traced run. Client and net timings come from the
// spans the load generator wraps around its own calls; server timings from
// replaying the recorded client-to-server frames into an in-process
// SessionManager (inline dispatch, sink channels); toolkit, protocol, db,
// obs and journal timings from calling those layers' public functions on
// the workload's recorded inputs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cosoft/toolkit/snapshot.hpp"
#include "harness.hpp"

namespace perfbench {

/// One copy_to of the traced phase: the shipped state and what it overwrote.
struct CopyRecord {
    cosoft::toolkit::UiState source;
    cosoft::toolkit::UiState dest_before;
};

/// Mean µs of the copy's flexible merge plus the undo's destructive restore,
/// replayed on a scratch widget tree.
[[nodiscard]] double time_merges(const std::vector<CopyRecord>& copies);

struct ServerReplay {
    std::string journal_dir;       ///< empty = volatile session
    std::string journal_template;  ///< copied into journal_dir before boot
};

struct ServerFigures {
    std::map<std::string, std::vector<double>> us_by_message;  ///< receive-handler time per inbound message
    std::uint64_t frames_in = 0;   ///< timed frames dispatched
    std::uint64_t frames_out = 0;  ///< frames the session sent while dispatching them
    std::uint64_t allocs = 0;      ///< heap allocations inside those dispatches
    double boot_s = 0;             ///< SessionManager construction (journal recovery)
    std::uint64_t records_replayed = 0;
    std::uint64_t journal_bytes = 0;  ///< journal growth over the timed frames
};

/// Replays the traced pass's client-to-server stream (set-up untimed, op
/// phases timed) into a fresh in-process SessionManager.
[[nodiscard]] ServerFigures replay_server(const Tracer& t, const ServerReplay& cfg);

/// Appends every timed client-to-server frame to a standalone
/// SessionJournal (batch fsync policy) in `dir`; syncs after every
/// `per_sync` appends. Returns {append µs mean, sync µs mean}.
[[nodiscard]] std::pair<double, double> time_journal(const Tracer& t, const std::string& dir, std::size_t per_sync);

/// Mean µs of decode_frame / encode_message over the recorded frames of the
/// op phases, both directions.
[[nodiscard]] std::pair<double, double> time_codec(const Tracer& t);

/// Mean ns of one FlightRecorder::record call.
[[nodiscard]] double time_flight_recorder();

}  // namespace perfbench
