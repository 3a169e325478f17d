package core

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vkgraph/internal/kg"
	"vkgraph/internal/rtree"
	"vkgraph/internal/snapfmt"
	"vkgraph/internal/walfmt"
)

// The write-ahead log persists the structural mutations that a snapshot
// alone loses: crack splits paid for by the query workload, plus the graph
// mutations (AddFact, InsertEntity, SetAttr) made since the last Save. Each
// mutation appends one walfmt record to a sidecar file keyed to the
// snapshot's generation; on load the records newer than the snapshot are
// replayed, rebuilding the exact live state — cracking is deterministic
// given tree state and query rect, so replaying the recorded rects in
// append order reproduces the tree byte for byte (StructureHash equality is
// the tested contract).
//
// Lock discipline: the WAL mutex is a leaf, always acquired last. Crack
// records are appended under the index write lock (which the engine read
// lock protects), so file order matches apply order; graph mutations append
// under the engine write lock, which excludes all cracks. SaveFile holds the
// engine read lock, the index read lock, and then the WAL mutex across
// snapshot-write plus log rotation, so no record can land in the old log
// after the snapshot that supersedes it.
//
// Append errors are sticky: one failed append disarms logging (a gap would
// make the suffix unreplayable), counts every subsequent lost record in
// AppendErrors, and the next successful rotation re-arms.

// WALSync selects the fsync policy of the WAL writer.
type WALSync int

const (
	// WALSyncInterval (the default) fsyncs on a background ticker —
	// bounded data loss on power failure, negligible append cost. Records
	// are written unbuffered, so anything appended before a crash of the
	// process (as opposed to the machine) survives in the page cache.
	WALSyncInterval WALSync = iota
	// WALSyncAlways fsyncs inside every append: no loss on power failure,
	// at one disk barrier per mutation.
	WALSyncAlways
	// WALSyncOff never fsyncs; the OS flushes on its own schedule.
	WALSyncOff
)

// WALOptions configure the engine's write-ahead log.
type WALOptions struct {
	// Path of the log file; empty derives "<snapshot path>.wal".
	Path string
	// Sync is the fsync policy (default WALSyncInterval).
	Sync WALSync
	// SyncInterval is the ticker period for WALSyncInterval (default 100ms).
	SyncInterval time.Duration
}

func (o WALOptions) normalized(snapPath string) WALOptions {
	if o.Path == "" {
		o.Path = snapPath + ".wal"
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 100 * time.Millisecond
	}
	return o
}

// WAL record kinds. The payloads are versioned by walfmt's header version;
// kinds are never reused. Every payload is written with snapfmt's
// fixed-width codec.
const (
	walRecCrack   uint8 = 1 // rect: Lo then Hi, f64 each
	walRecAddFact uint8 = 2 // h, r, t: i32 each
	walRecInsert  uint8 = 3 // walInsertRec.encode
	walRecSetAttr uint8 = 4 // walSetAttrRec.encode
)

// walInsertRec is the replayable form of an InsertEntity call. The solved
// vector is deliberately not recorded: it is a deterministic function of
// the model state at the record's logical position, so replay recomputes
// it. Attrs are parallel slices sorted by name — map order would make the
// attribute registration order (and thus the replayed engine) depend on
// iteration order.
type walInsertRec struct {
	Name, Typ string
	Facts     []Fact
	AttrNames []string
	AttrVals  []float64
}

// encode writes the record:
//
//	name str | type str | facts: count | (rel i32, other i32, newIsHead u8)... |
//	attrs: count | (name str, value f64)...
func (ir *walInsertRec) encode(w *snapfmt.Writer) {
	w.Str(ir.Name)
	w.Str(ir.Typ)
	w.Count(len(ir.Facts))
	for _, f := range ir.Facts {
		w.I32(f.Rel)
		w.I32(f.Other)
		w.Bool(f.NewIsHead)
	}
	w.Count(len(ir.AttrNames))
	for i, name := range ir.AttrNames {
		w.Str(name)
		w.F64(ir.AttrVals[i])
	}
}

// decodeInsertRec reads a payload written by walInsertRec.encode. Any
// failure wraps snapfmt.ErrCorrupt.
func decodeInsertRec(b []byte) (walInsertRec, error) {
	r := snapfmt.NewReader(b)
	ir := walInsertRec{Name: r.Str(), Typ: r.Str()}
	if n := r.Count(9); n > 0 {
		ir.Facts = make([]Fact, n)
		for i := range ir.Facts {
			ir.Facts[i] = Fact{Rel: r.I32(), Other: r.I32(), NewIsHead: r.Bool()}
		}
	}
	if n := r.Count(12); n > 0 {
		ir.AttrNames, ir.AttrVals = make([]string, n), make([]float64, n)
		for i := range ir.AttrNames {
			ir.AttrNames[i], ir.AttrVals[i] = r.Str(), r.F64()
		}
	}
	if err := r.Finish(); err != nil {
		return walInsertRec{}, fmt.Errorf("core: decode insert record: %w", err)
	}
	return ir, nil
}

// walSetAttrRec is the replayable form of a SetAttr call:
//
//	name str | id i32 | value f64
type walSetAttrRec struct {
	Name string
	ID   int32
	Val  float64
}

func (sr *walSetAttrRec) encode(w *snapfmt.Writer) {
	w.Str(sr.Name)
	w.I32(sr.ID)
	w.F64(sr.Val)
}

// decodeSetAttrRec reads a payload written by walSetAttrRec.encode. Any
// failure wraps snapfmt.ErrCorrupt.
func decodeSetAttrRec(b []byte) (walSetAttrRec, error) {
	r := snapfmt.NewReader(b)
	sr := walSetAttrRec{Name: r.Str(), ID: r.I32(), Val: r.F64()}
	if err := r.Finish(); err != nil {
		return walSetAttrRec{}, fmt.Errorf("core: decode setattr record: %w", err)
	}
	return sr, nil
}

// walState is the engine's WAL writer state, embedded by value so the
// metric closures can read the atomics before the log is armed.
type walState struct {
	// armed is the append fast path: false means every mutation returns
	// without touching the mutex. Set under mu.
	armed atomic.Bool

	mu         sync.Mutex
	configured bool // EnableWAL/attachWAL ran; SaveFile(snapPath) rotates
	w          *walfmt.Writer
	f          *os.File
	path       string // log file
	snapPath   string // snapshot the log is keyed to
	opts       WALOptions
	gen        uint64
	err        error // sticky append error; disarms until the next rotation
	stop, done chan struct{}

	appended      atomic.Uint64
	bytes         atomic.Uint64
	rotations     atomic.Uint64
	appendErrs    atomic.Uint64
	replayRecords atomic.Uint64
	replayNanos   atomic.Int64
	replayDropped atomic.Uint64
	replayTorn    atomic.Uint64
	replayStale   atomic.Uint64
}

// WALStats is a point-in-time view of the write-ahead log counters.
type WALStats struct {
	// Enabled reports whether a WAL is configured on this engine.
	Enabled bool
	// Path of the log file.
	Path string
	// Generation of the snapshot the log currently extends.
	Generation uint64

	AppendedRecords uint64
	AppendedBytes   uint64
	// AppendErrors counts records lost to a failed append, including every
	// record skipped while the writer is disarmed by a sticky error.
	AppendErrors uint64
	// Rotations counts log resets (one per WAL-armed snapshot, plus the
	// initial creation).
	Rotations uint64

	// ReplayedRecords/ReplayDuration describe the warm-up replay of the
	// most recent load.
	ReplayedRecords uint64
	ReplayDuration  time.Duration
	// ReplayDroppedBytes is the torn/corrupt suffix truncated at load;
	// ReplayTruncations counts loads that had to truncate.
	ReplayDroppedBytes uint64
	ReplayTruncations  uint64
	// ReplayStale counts logs discarded whole because their generation did
	// not match the snapshot (e.g. a crash between snapshot rename and log
	// rotation).
	ReplayStale uint64
}

// WALStats returns the engine's write-ahead log counters.
func (e *Engine) WALStats() WALStats {
	w := &e.wal
	w.mu.Lock()
	st := WALStats{Enabled: w.configured, Path: w.path, Generation: w.gen}
	w.mu.Unlock()
	st.AppendedRecords = w.appended.Load()
	st.AppendedBytes = w.bytes.Load()
	st.AppendErrors = w.appendErrs.Load()
	st.Rotations = w.rotations.Load()
	st.ReplayedRecords = w.replayRecords.Load()
	st.ReplayDuration = time.Duration(w.replayNanos.Load())
	st.ReplayDroppedBytes = w.replayDropped.Load()
	st.ReplayTruncations = w.replayTorn.Load()
	st.ReplayStale = w.replayStale.Load()
	return st
}

// EnableWAL arms the write-ahead log on a live engine: it writes a fresh
// snapshot to snapPath (the anchor every later replay starts from) and
// opens the sidecar log keyed to it. Subsequent SaveFile(snapPath) calls
// rotate the log atomically with the snapshot.
func (e *Engine) EnableWAL(snapPath string, opts WALOptions) error {
	if snapPath == "" {
		return errors.New("core: EnableWAL needs a snapshot path")
	}
	opts = opts.normalized(snapPath)
	e.wal.mu.Lock()
	if e.wal.configured {
		e.wal.mu.Unlock()
		return errors.New("core: WAL already enabled")
	}
	e.wal.configured = true
	e.wal.snapPath = snapPath
	e.wal.path = opts.Path
	e.wal.opts = opts
	e.wal.mu.Unlock()
	return e.SaveFile(snapPath)
}

// CloseWAL syncs and closes the log and stops the interval-sync goroutine.
// The engine keeps running, but mutations are no longer logged and a later
// SaveFile writes a plain (non-WAL) snapshot.
func (e *Engine) CloseWAL() error {
	w := &e.wal
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop, w.done = nil, nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed.Store(false)
	w.configured = false
	var first error
	if w.w != nil {
		if _, err := w.w.Sync(); err != nil {
			first = err
		}
		w.w = nil
	}
	if w.f != nil {
		if err := w.f.Close(); err != nil && first == nil {
			first = err
		}
		w.f = nil
	}
	return first
}

// LoadEngineFileWAL loads a snapshot and attaches its write-ahead log:
// records newer than the snapshot are replayed (warming the index to its
// pre-crash state), a torn or corrupt suffix is truncated rather than
// failing the load, and the engine comes up with logging armed on the same
// file. A log written in another format version fails the load with
// walfmt.ErrVersion and is left untouched. A snapshot written without a WAL
// is first re-anchored: rewritten in place at generation 1 with a fresh
// empty log beside it.
func LoadEngineFileWAL(path string, opts WALOptions) (*Engine, error) {
	e, err := LoadEngineFile(path)
	if err != nil {
		return nil, err
	}
	if err := e.attachWAL(path, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// attachWAL replays and arms the log on a freshly loaded, not yet published
// engine (no other goroutine can touch e during replay).
func (e *Engine) attachWAL(snapPath string, opts WALOptions) error {
	opts = opts.normalized(snapPath)
	e.wal.mu.Lock()
	e.wal.configured = true
	e.wal.snapPath = snapPath
	e.wal.path = opts.Path
	e.wal.opts = opts
	e.wal.mu.Unlock()

	if e.snapGen == 0 {
		// The snapshot was written by a plain Save and carries no
		// generation; nothing could ever be keyed to it. Re-anchor: rewrite
		// it at generation 1 and start an empty log.
		return e.SaveFile(snapPath)
	}
	gen := e.snapGen

	f, err := os.OpenFile(e.wal.path, os.O_RDWR, 0o644)
	if err != nil {
		if !os.IsNotExist(err) {
			return fmt.Errorf("core: opening WAL: %w", err)
		}
		// No log: the snapshot is complete on its own. Start one.
		e.wal.mu.Lock()
		defer e.wal.mu.Unlock()
		return e.rotateWALLocked(gen)
	}

	start := time.Now()
	sc, serr := walfmt.NewScanner(bufio.NewReaderSize(f, 1<<16))
	if errors.Is(serr, walfmt.ErrVersion) {
		// An intact log in another format version holds mutations this
		// build cannot replay; refuse it, and leave it where it is.
		f.Close()
		return fmt.Errorf("core: WAL %s: %w", e.wal.path, serr)
	}
	if serr != nil || sc.Gen() != gen {
		// Unreadable header or a log keyed to a different snapshot — e.g. a
		// crash between snapshot rename and log rotation left the previous
		// generation's log behind. Replaying it would corrupt the engine;
		// discard it whole and start fresh.
		f.Close()
		e.wal.replayStale.Add(1)
		e.wal.mu.Lock()
		defer e.wal.mu.Unlock()
		return e.rotateWALLocked(gen)
	}

	var replayed uint64
	goodOff := sc.CleanOffset()
	torn := false
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			torn = true
			break
		}
		if err := e.applyWALRecord(rec); err != nil {
			// A record that frames and checksums but does not apply (e.g.
			// an out-of-range id) means the file no longer matches the
			// engine; everything from here on is equally untrustworthy.
			torn = true
			break
		}
		replayed++
		goodOff = sc.CleanOffset()
	}
	e.wal.replayRecords.Store(replayed)
	e.wal.replayNanos.Store(time.Since(start).Nanoseconds())

	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("core: WAL seek: %w", err)
	}
	if torn {
		e.wal.replayTorn.Add(1)
		if size > goodOff {
			e.wal.replayDropped.Add(uint64(size - goodOff))
		}
		if err := f.Truncate(goodOff); err != nil {
			f.Close()
			return fmt.Errorf("core: truncating torn WAL: %w", err)
		}
		if _, err := f.Seek(goodOff, io.SeekStart); err != nil {
			f.Close()
			return fmt.Errorf("core: WAL seek: %w", err)
		}
	}

	e.wal.mu.Lock()
	defer e.wal.mu.Unlock()
	e.wal.f = f
	e.wal.w = walfmt.ResumeWriter(f)
	e.wal.gen = gen
	e.wal.err = nil
	e.wal.armed.Store(true)
	e.ensureSyncLoopLocked()
	return nil
}

// rotateWALLocked atomically replaces the log with an empty one keyed to
// gen: the new header lands in a temp file, is synced, and is renamed over
// the log path, so a crash at any point leaves either the old complete log
// or the new empty one — never a headerless file. Caller holds wal.mu; the
// snapshot for gen must already be durably in place (SaveFile orders the
// two under the same critical section).
func (e *Engine) rotateWALLocked(gen uint64) error {
	w := &e.wal
	dir := filepath.Dir(w.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(w.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("core: rotating WAL: %w", err)
	}
	nw, err := walfmt.NewWriter(tmp, gen)
	if err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: rotating WAL: %w", err)
	}
	if err := os.Rename(tmp.Name(), w.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: rotating WAL: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.w = tmp, nw
	w.gen = gen
	w.err = nil // a fresh log has no gap; re-arm after sticky errors
	w.rotations.Add(1)
	w.armed.Store(true)
	e.ensureSyncLoopLocked()
	return nil
}

// ensureSyncLoopLocked starts the interval-fsync goroutine once. Caller
// holds wal.mu.
func (e *Engine) ensureSyncLoopLocked() {
	w := &e.wal
	if w.opts.Sync != WALSyncInterval || w.stop != nil {
		return
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go e.walSyncLoop(w.opts.SyncInterval, w.stop, w.done)
}

func (e *Engine) walSyncLoop(interval time.Duration, stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			e.walSyncOnce()
		}
	}
}

func (e *Engine) walSyncOnce() {
	w := &e.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.w == nil || w.err != nil {
		return
	}
	t0 := time.Now()
	synced, err := w.w.Sync()
	if err != nil {
		w.err = err
		w.appendErrs.Add(1)
		return
	}
	if synced {
		e.met.walFsync.Observe(time.Since(t0).Seconds())
	}
}

// walAppend frames one record onto the log. Unarmed engines return on the
// atomic fast path without locking. The caller must hold the lock that
// serializes the mutation being logged (the engine write lock for graph
// mutations, the index write lock for cracks); wal.mu is a leaf below both,
// so the file order of records matches their apply order.
func (e *Engine) walAppend(kind uint8, payload []byte) {
	w := &e.wal
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.w == nil || w.err != nil {
		if w.configured {
			w.appendErrs.Add(1) // a record this log should have had, lost
		}
		return
	}
	n, err := w.w.Append(kind, payload)
	if err != nil {
		w.err = err
		w.appendErrs.Add(1)
		return
	}
	w.appended.Add(1)
	w.bytes.Add(uint64(n))
	if w.opts.Sync == WALSyncAlways {
		t0 := time.Now()
		if _, err := w.w.Sync(); err != nil {
			w.err = err
			w.appendErrs.Add(1)
			return
		}
		e.met.walFsync.Observe(time.Since(t0).Seconds())
	}
}

func (e *Engine) walAppendCrack(q rtree.Rect) {
	if !e.wal.armed.Load() {
		return
	}
	e.walcheckIndexLocked()
	var w snapfmt.Writer
	w.Grow(16 * len(q.Lo))
	for _, v := range q.Lo {
		w.F64(v)
	}
	for _, v := range q.Hi {
		w.F64(v)
	}
	e.walAppend(walRecCrack, w.Bytes())
}

func (e *Engine) walAppendAddFact(h kg.EntityID, r kg.RelationID, t kg.EntityID) {
	if !e.wal.armed.Load() {
		return
	}
	e.walcheckEngineLocked("AddFact")
	var w snapfmt.Writer
	w.Grow(12)
	w.I32(h)
	w.I32(r)
	w.I32(t)
	e.walAppend(walRecAddFact, w.Bytes())
}

func (e *Engine) walAppendInsert(name, typ string, facts []Fact, attrNames []string, attrVals []float64) {
	if !e.wal.armed.Load() {
		return
	}
	e.walcheckEngineLocked("InsertEntity")
	var w snapfmt.Writer
	rec := walInsertRec{Name: name, Typ: typ, Facts: facts, AttrNames: attrNames, AttrVals: attrVals}
	rec.encode(&w)
	e.walAppend(walRecInsert, w.Bytes())
}

func (e *Engine) walAppendSetAttr(name string, id kg.EntityID, v float64) {
	if !e.wal.armed.Load() {
		return
	}
	e.walcheckEngineLocked("SetAttr")
	var w snapfmt.Writer
	rec := walSetAttrRec{Name: name, ID: id, Val: v}
	rec.encode(&w)
	e.walAppend(walRecSetAttr, w.Bytes())
}

// applyWALRecord replays one record onto the loading engine. Any failure —
// malformed payload, out-of-range id — marks the record (and everything
// after it) as an untrustworthy suffix; the caller truncates there. Replay
// runs pre-publish with no other accessors, so no locks are taken; it goes
// through the same *Locked mutation helpers as the live write paths, which
// is what makes the replayed engine structurally identical to the one that
// wrote the log.
//
// Replay appends nothing: it applies records that are already in the log,
// and re-appending them would double every mutation on the next replay.
func (e *Engine) applyWALRecord(rec walfmt.Record) error {
	switch rec.Kind {
	case walRecCrack:
		r := snapfmt.NewReader(rec.Payload)
		q := rtree.Rect{Lo: make([]float64, e.ps.Dim), Hi: make([]float64, e.ps.Dim)}
		for i := range q.Lo {
			q.Lo[i] = r.F64()
		}
		for i := range q.Hi {
			q.Hi[i] = r.F64()
		}
		if err := r.Finish(); err != nil {
			return fmt.Errorf("core: crack record of %d bytes in %d dimensions: %w", len(rec.Payload), e.ps.Dim, err)
		}
		e.idx.tree.Crack(q)
		return nil

	case walRecAddFact:
		r := snapfmt.NewReader(rec.Payload)
		h, rel, t := r.I32(), r.I32(), r.I32()
		if err := r.Finish(); err != nil {
			return fmt.Errorf("core: addfact record: %w", err)
		}
		return e.addFactLocked(h, rel, t)

	case walRecInsert:
		ir, err := decodeInsertRec(rec.Payload)
		if err != nil {
			return err
		}
		_, _, err = e.insertEntityLocked(ir.Name, ir.Typ, ir.Facts, ir.AttrNames, ir.AttrVals)
		return err

	case walRecSetAttr:
		sr, err := decodeSetAttrRec(rec.Payload)
		if err != nil {
			return err
		}
		if err := e.validateEntity(kg.EntityID(sr.ID)); err != nil {
			return err
		}
		e.setAttrLocked(sr.Name, kg.EntityID(sr.ID), sr.Val)
		return nil

	default:
		return fmt.Errorf("core: unknown WAL record kind %d", rec.Kind)
	}
}

// sortAttrs flattens an attribute map into parallel slices sorted by name,
// the canonical order used by both the live InsertEntity path and the WAL
// record — map iteration order must never decide attribute registration
// order, or a replayed engine could register columns differently than the
// live one did.
func sortAttrs(attrs map[string]float64) (names []string, vals []float64) {
	if len(attrs) == 0 {
		return nil, nil
	}
	names = make([]string, 0, len(attrs))
	for n := range attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	vals = make([]float64, len(names))
	for i, n := range names {
		vals[i] = attrs[n]
	}
	return names, vals
}
