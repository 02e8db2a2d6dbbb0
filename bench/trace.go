package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"invisiblebits/internal/analog"
	"invisiblebits/internal/faults"
	"invisiblebits/internal/storage"
)

// span is one timed call: a layer boundary the benchmark crosses itself,
// or one it observes through a seam the program already exposes (the
// storage.FS, the rig's fault injector, the HTTP client's transport).
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent indexes the span that caused this one; -1 for op roots,
	// twins, and seam spans seen while no op was in flight.
	Parent int `json:"parent"`
	// Op is the op the span belongs to; -1 outside any op.
	Op int `json:"op"`
	// Twin marks a timing taken on a twin built from the op's inputs,
	// outside the op's window. Twins count towards their layer's time
	// but never towards the op's coverage.
	Twin bool `json:"twin,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps the spans and per-op counts of a traced run in memory.
// A nil *tracer is the untraced run: every method then just runs the
// call it wraps, so traced and untraced ops share their code.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[int]map[string]float64
	op     int // op in flight, -1 between ops
	root   int // root span of the op in flight
	parent int // span new seam spans attach to: the open entry call, else the op root
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[int]map[string]float64{}, op: -1, root: -1, parent: -1}
}

// now is nanoseconds since the tracer started, on the monotonic clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// beginOp opens op id's root span; the op's own calls become its
// children until endOp.
func (t *tracer) beginOp(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.op = id
	t.root = t.add(span{Name: "op", Start: t.now(), End: -1, Parent: -1, Op: id})
	t.parent = t.root
}

// endOp closes the op in flight.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[t.root].End = t.now()
	t.op, t.root, t.parent = -1, -1, -1
}

// enter times fn, a call into the program, as a child of the span open
// around it (the op root, or an outer entry). The spans fn produces,
// from seams or nested calls, become its children, and what they leave
// uncovered is the call's self time.
func (t *tracer) enter(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	t.mu.Lock()
	outer := t.parent
	i := t.add(span{Name: name, Start: t.now(), Parent: outer, Op: t.op})
	t.parent = i
	t.mu.Unlock()
	err := fn()
	t.mu.Lock()
	t.spans[i].End = t.now()
	t.parent = outer
	t.mu.Unlock()
	return err
}

// twin times fn as a twin timing of op id: the same public call, made on
// a twin built from the op's inputs, outside the op's window.
func (t *tracer) twin(id int, name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := t.now()
	err := fn()
	end := t.now()
	t.mu.Lock()
	t.add(span{Name: name, Start: start, End: end, Parent: -1, Op: id, Twin: true})
	t.mu.Unlock()
	return err
}

// seam records a span observed through a seam, from any goroutine.
func (t *tracer) seam(name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(span{Name: name, Start: start, End: end, Parent: t.parent, Op: t.op})
}

// count adds v to a per-op count of op id (the op in flight when id is
// -1 and an op is open).
func (t *tracer) count(id int, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 {
		id = t.op
	}
	m := t.counts[id]
	if m == nil {
		m = map[string]float64{}
		t.counts[id] = m
	}
	m[name] += v
}

// snapshot copies the spans and counts recorded so far.
func (t *tracer) snapshot() ([]span, map[int]map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	counts := make(map[int]map[string]float64, len(t.counts))
	for id, m := range t.counts {
		c := make(map[string]float64, len(m))
		for k, v := range m {
			c[k] = v
		}
		counts[id] = c
	}
	return append([]span(nil), t.spans...), counts
}

// writeSpans dumps the spans as JSON to path.
func (t *tracer) writeSpans(path string) error {
	spans, _ := t.snapshot()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// coveredNs is the length of the union of the intervals, each clipped to
// [lo, hi].
func coveredNs(ivs [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for k, iv := range clipped {
		switch {
		case k == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] > curB:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		case iv[1] > curB:
			curB = iv[1]
		}
	}
	if len(clipped) > 0 {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover. Children that run concurrently (parallel slots)
// are counted once.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - coveredNs(children[i], s.Start, s.End)
	}
	return self
}

// opProfile is what a trace says about one op.
type opProfile struct {
	wall     int64            // root span duration
	covered  int64            // union of the op's non-twin spans within the root
	selfTime map[string]int64 // self time per span name, twins included
	durs     map[string][]int64
}

func isRoot(s span) bool { return s.Name == "op" && s.Parent == -1 && !s.Twin }

// profiles groups the finished ops of a trace by op id.
func profiles(spans []span) map[int]*opProfile {
	roots := map[int]span{}
	for _, s := range spans {
		if isRoot(s) && s.End >= s.Start {
			roots[s.Op] = s
		}
	}
	ops := make(map[int]*opProfile, len(roots))
	for id, r := range roots {
		ops[id] = &opProfile{wall: r.dur(), selfTime: map[string]int64{}, durs: map[string][]int64{}}
	}
	self := selfTimes(spans)
	inner := map[int][][2]int64{}
	for i, s := range spans {
		p := ops[s.Op]
		if p == nil || isRoot(s) || s.End < s.Start {
			continue
		}
		p.selfTime[s.Name] += self[i]
		p.durs[s.Name] = append(p.durs[s.Name], s.dur())
		if !s.Twin {
			inner[s.Op] = append(inner[s.Op], [2]int64{s.Start, s.End})
		}
	}
	for id, p := range ops {
		p.covered = coveredNs(inner[id], roots[id].Start, roots[id].End)
	}
	return ops
}

// --- seams --------------------------------------------------------------------

// stateFS is the filesystem every workload's durable state goes
// through: the real one, except that fsync returns at once, as it does
// on tmpfs. The state must stay inside the benchmark's checkout, whose
// disk may be shared; there, fsync latency swings from run to run by
// more than any bound could absorb. Every sync is still called, in the
// same order, and a traced run counts it; it just returns at once.
type stateFS struct{ storage.FS }

func newStateFS() storage.FS { return stateFS{storage.OS()} }

func (f stateFS) OpenFile(p string, flag int, perm os.FileMode) (storage.File, error) {
	file, err := f.FS.OpenFile(p, flag, perm)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{file}, nil
}

func (f stateFS) CreateTemp(dir, pattern string) (storage.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{file}, nil
}

func (stateFS) SyncDir(string) error { return nil }

type unsyncedFile struct{ storage.File }

func (unsyncedFile) Sync() error { return nil }

// tracedFS wraps the state filesystem behind the storage.FS seam and
// records every call as a storage span, classified by the file it
// touches: the journal, a device image, or anything else (specs,
// results, directories).
type tracedFS struct {
	storage.FS
	tr *tracer
}

func newTracedFS(tr *tracer) *tracedFS { return &tracedFS{FS: newStateFS(), tr: tr} }

// fileClass names the kind of durable artifact at p.
func fileClass(p string) string {
	base := filepath.Base(p)
	switch {
	case strings.HasPrefix(base, "journal."):
		return "journal"
	case strings.Contains(base, ".img"):
		return "image"
	}
	return "other"
}

// spanName maps an operation on a file class to its storage span.
func spanName(class string, sync bool) string {
	switch class {
	case "journal":
		if sync {
			return "storage.journal_sync"
		}
		return "storage.journal_write"
	case "image":
		return "storage.image_write"
	}
	return "storage.other"
}

func (f *tracedFS) timed(name string, fn func() error) error {
	start := f.tr.now()
	err := fn()
	f.tr.seam(name, start, f.tr.now())
	return err
}

func (f *tracedFS) OpenFile(p string, flag int, perm os.FileMode) (storage.File, error) {
	var file storage.File
	err := f.timed(spanName(fileClass(p), false), func() (err error) {
		file, err = f.FS.OpenFile(p, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, class: fileClass(p)}, nil
}

func (f *tracedFS) CreateTemp(dir, pattern string) (storage.File, error) {
	var file storage.File
	err := f.timed(spanName(fileClass(pattern), false), func() (err error) {
		file, err = f.FS.CreateTemp(dir, pattern)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, class: fileClass(pattern)}, nil
}

func (f *tracedFS) ReadFile(p string) ([]byte, error) {
	var b []byte
	err := f.timed(spanName(fileClass(p), false), func() (err error) {
		b, err = f.FS.ReadFile(p)
		return err
	})
	return b, err
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	return f.timed(spanName(fileClass(newpath), false), func() error { return f.FS.Rename(oldpath, newpath) })
}

func (f *tracedFS) Remove(p string) error {
	return f.timed(spanName(fileClass(p), false), func() error { return f.FS.Remove(p) })
}

func (f *tracedFS) Truncate(p string, size int64) error {
	return f.timed(spanName(fileClass(p), false), func() error { return f.FS.Truncate(p, size) })
}

func (f *tracedFS) MkdirAll(p string, perm os.FileMode) error {
	return f.timed("storage.other", func() error { return f.FS.MkdirAll(p, perm) })
}

func (f *tracedFS) Stat(p string) (os.FileInfo, error) {
	var fi os.FileInfo
	err := f.timed(spanName(fileClass(p), false), func() (err error) {
		fi, err = f.FS.Stat(p)
		return err
	})
	return fi, err
}

func (f *tracedFS) ReadDir(p string) ([]os.DirEntry, error) {
	var ents []os.DirEntry
	err := f.timed("storage.other", func() (err error) {
		ents, err = f.FS.ReadDir(p)
		return err
	})
	return ents, err
}

func (f *tracedFS) SyncDir(p string) error {
	f.tr.count(-1, "storage.syncs", 1)
	return f.timed("storage.other", func() error { return f.FS.SyncDir(p) })
}

type tracedFile struct {
	storage.File
	fs    *tracedFS
	class string
}

func (t *tracedFile) Write(b []byte) (int, error) {
	var n int
	err := t.fs.timed(spanName(t.class, false), func() (err error) {
		n, err = t.File.Write(b)
		return err
	})
	if t.class == "image" {
		t.fs.tr.count(-1, "storage.image_bytes", float64(n))
	}
	return n, err
}

func (t *tracedFile) Sync() error {
	t.fs.tr.count(-1, "storage.syncs", 1)
	return t.fs.timed(spanName(t.class, true), t.File.Sync)
}

func (t *tracedFile) Close() error {
	return t.fs.timed(spanName(t.class, false), t.File.Close)
}

func (t *tracedFile) Chmod(mode os.FileMode) error {
	return t.fs.timed(spanName(t.class, false), func() error { return t.File.Chmod(mode) })
}

// tracedInjector is a fault injector that injects nothing. The rig
// consults it before a firmware load, power-on or capture burst, and
// again when a snapshot or votes come back, which brackets the work
// with no change to the program. A firmware load has no closing hook:
// its span runs to the next hook, so it also holds the chamber and
// supply settings made in between. The injector reports itself inert,
// so the rig stays on its exact fault-free code paths.
type tracedInjector struct {
	tr    *tracer
	open  faults.Op
	start int64
}

func (in *tracedInjector) Inert() bool { return true }

func (in *tracedInjector) OpError(op faults.Op, _ float64) error {
	if in.open == faults.OpLoadProgram {
		in.close()
	}
	switch op {
	case faults.OpLoadProgram, faults.OpCapture, faults.OpPowerOn:
		in.open, in.start = op, in.tr.now()
	}
	return nil
}

func (in *tracedInjector) PerturbConditions(c analog.Conditions, _ float64) (analog.Conditions, string) {
	return c, ""
}

func (in *tracedInjector) CorruptSnapshot([]byte, float64)     { in.close() }
func (in *tracedInjector) CorruptVotes([]uint16, int, float64) { in.close() }

func (in *tracedInjector) close() {
	switch in.open {
	case faults.OpLoadProgram:
		in.tr.seam("rig.load_program", in.start, in.tr.now())
	case faults.OpCapture:
		in.tr.seam("sram.capture", in.start, in.tr.now())
	case faults.OpPowerOn:
		in.tr.seam("sram.power_on", in.start, in.tr.now())
	}
	in.open = ""
}

// tracedTransport times each HTTP round trip of the scheduler client,
// named after its route: http.submit, http.campaigns, http.status,
// http.drain.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	route, _, _ := strings.Cut(strings.TrimPrefix(req.URL.Path, "/api/"), "/")
	t.tr.seam("http."+route, start, t.tr.now())
	return resp, err
}
