package vkg

import (
	"fmt"

	"vkgraph/internal/core"
)

// The write-ahead log makes restarts instantly warm: between snapshots,
// every structural mutation — the crack splits queries pay for, plus
// AddFact/InsertEntity/SetEntityAttr — is appended to a checksummed sidecar
// log, and LoadFileWAL replays the suffix newer than the snapshot instead
// of rebuilding a cold index. A torn or corrupt log suffix never fails the
// load: the clean prefix is applied and the damage is truncated, visible in
// WALStats and on /metrics.

// WALSync selects the log's fsync policy; see the README's durability
// table for the tradeoff.
type WALSync = core.WALSync

const (
	// WALSyncInterval (default) fsyncs on a background ticker: bounded
	// loss on power failure, negligible append cost. Records are written
	// unbuffered, so a process crash (as opposed to power loss) loses
	// nothing regardless of fsync timing.
	WALSyncInterval = core.WALSyncInterval
	// WALSyncAlways fsyncs inside every mutation: zero loss on power
	// failure at one disk barrier per mutation.
	WALSyncAlways = core.WALSyncAlways
	// WALSyncOff never fsyncs; the OS flushes on its own schedule.
	WALSyncOff = core.WALSyncOff
)

// WALConfig configures the write-ahead log: the log file Path (empty derives
// "<snapshot path>.wal"), the Sync policy (default WALSyncInterval), and the
// ticker period SyncInterval under WALSyncInterval (default 100ms).
type WALConfig = core.WALOptions

// WALStats is a point-in-time view of the write-ahead log, included in
// Metrics and available directly via VKG.WALStats: the append-side counters
// (records, bytes, errors, rotations) and the replay counters of the most
// recent LoadFileWAL.
type WALStats = core.WALStats

// LoadFileWAL loads a snapshot with its write-ahead log: records newer
// than the snapshot are replayed — restoring the crack structure and
// graph mutations the last process accrued after its final save — and the
// log stays armed, so further mutations keep appending. A snapshot written
// without a WAL is re-anchored in place (rewritten at generation 1 with a
// fresh log beside it). See Load for the snapshot error contract; log
// damage never fails the load.
func LoadFileWAL(path string, cfg WALConfig) (*VKG, error) {
	eng, err := core.LoadEngineFileWAL(path, cfg)
	if err != nil {
		return nil, err
	}
	return wrapLoadedEngine(eng), nil
}

// EnableWAL arms the write-ahead log on a live VKG: a fresh snapshot is
// written to snapshotPath (the anchor replays start from) and every later
// mutation is logged. Subsequent SaveFile(snapshotPath) calls rotate the
// log atomically with the snapshot.
func (v *VKG) EnableWAL(snapshotPath string, cfg WALConfig) error {
	if v.noIdx {
		return fmt.Errorf("vkg: ModeNoIndex has no index to log")
	}
	return v.eng.EnableWAL(snapshotPath, cfg)
}

// WALStats returns the current write-ahead log counters.
func (v *VKG) WALStats() WALStats { return v.eng.WALStats() }

// CloseWAL syncs and closes the log; the VKG keeps serving, but mutations
// are no longer logged. Call it before process exit when not going through
// a draining server (serve.Drain snapshots, which rotates the log).
func (v *VKG) CloseWAL() error { return v.eng.CloseWAL() }
