package faults

import (
	"errors"
	"fmt"
	"sync"

	"invisiblebits/internal/rng"
)

// Storage fault taxonomy. The paper's host-side artifacts — the record
// file holding the pre-shared decode parameters, the device images
// holding tens of simulated chamber-hours of analog state — are
// "unrecoverable at any price" once lost, yet they live on commodity
// disks that tear writes, flip bits at rest, fill up, and lie about
// fsync. These sentinels classify the injected hazards the same way
// the device taxonomy above classifies link drops and latch-ups, so
// the durability layers can be tested against a disk that misbehaves
// exactly as deterministically as the silicon does.
var (
	// ErrDiskFull is the injected ENOSPC: the volume has no room for
	// the write. Retrying without freeing space is pointless, but the
	// device is fine — the supervisor must fail closed and wait for an
	// operator, not quarantine carriers.
	ErrDiskFull = errors.New("faults: disk full (ENOSPC)")
	// ErrFsyncLost is the fsyncgate hazard: an fsync reported failure
	// AND the kernel dropped the dirty pages, so retrying the fsync
	// "succeeds" while the data is already gone. A supervisor that
	// treats fsync failure as retryable persists a truth the disk never
	// held.
	ErrFsyncLost = errors.New("faults: fsync failed, unflushed writes lost")
	// ErrMediaError is injected bit rot surfaced at read time — the
	// disk returned bytes it cannot vouch for (or an outright read
	// error). Self-verifying formats (CRC frames, sha256 footers) turn
	// silent rot into this loud, typed failure.
	ErrMediaError = errors.New("faults: storage media error")
)

// StorageOp names a filesystem operation for the storage injector's
// decision sites (mirroring Op for rig operations).
type StorageOp string

// Filesystem operations the storage layer consults the injector about.
const (
	StorageWrite   StorageOp = "write"
	StorageSync    StorageOp = "fsync"
	StorageRead    StorageOp = "read"
	StorageRename  StorageOp = "rename"
	StorageCreate  StorageOp = "create"
	StorageClose   StorageOp = "close"
	StorageChmod   StorageOp = "chmod"
	StorageSyncDir StorageOp = "syncdir"
)

// StorageProfile parameterizes the seeded storage-fault engine. The
// zero value injects nothing. Rates are per-operation probabilities;
// every decision is a pure function of (seed, operation, path,
// per-site sequence number), so a fixed seed replays the same storm.
type StorageProfile struct {
	// Seed decorrelates storms; the same seed replays the same one.
	Seed uint64

	// WriteErrRate is the per-write probability of an I/O error.
	WriteErrRate float64
	// SyncErrRate is the per-fsync probability of fsyncgate semantics:
	// the fsync fails AND the unflushed bytes are dropped on the floor.
	SyncErrRate float64
	// ReadErrRate is the per-read probability of a media error.
	ReadErrRate float64
	// BitRotRate is the per-whole-file-read probability of SILENT
	// corruption: one byte of the returned data is flipped and no error
	// is reported. Only self-verifying formats catch this.
	BitRotRate float64

	// TearFrac, when a crash interrupts unsynced writes, is the maximum
	// fraction of the unsynced tail that survives; the surviving length
	// is drawn deterministically in [0, TearFrac]. Zero keeps nothing
	// unsynced (the harshest tear); 1 allows anything up to a full
	// survive.
	TearFrac float64
	// RenameRevertRate is the probability that a rename whose directory
	// was never fsynced is undone by a crash — the reordered-directory-
	// entries hazard of journaling filesystems.
	RenameRevertRate float64
}

// Inert reports whether the profile injects nothing.
func (p StorageProfile) Inert() bool {
	return p == StorageProfile{} || p == StorageProfile{Seed: p.Seed}
}

// StorageFaults is the seeded decision engine for storage hazards,
// built on the same hash-everything determinism as SeededInjector: a
// decision site is (operation, path, sequence number), so the same
// profile replays the same failures no matter how goroutines schedule.
// It is safe for concurrent use.
type StorageFaults struct {
	profile StorageProfile
	base    uint64

	mu  sync.Mutex
	seq map[string]uint64
}

// NewStorageFaults builds the seeded storage-fault engine.
func NewStorageFaults(p StorageProfile) *StorageFaults {
	return &StorageFaults{
		profile: p,
		base:    p.Seed ^ rng.HashString("faults/storage"),
		seq:     make(map[string]uint64),
	}
}

// roll returns a uniform [0,1) variate for one decision site, advancing
// the site's sequence counter.
func (s *StorageFaults) roll(site string) float64 {
	s.mu.Lock()
	n := s.seq[site]
	s.seq[site] = n + 1
	s.mu.Unlock()
	h := rng.HashString(fmt.Sprintf("%s|%d", site, n))
	return rng.NewSource(s.base ^ h).Float64()
}

// OpError is consulted before a storage operation on path; a non-nil
// return injects that failure.
func (s *StorageFaults) OpError(op StorageOp, path string) error {
	if s == nil {
		return nil
	}
	switch op {
	case StorageWrite:
		if s.profile.WriteErrRate > 0 && s.roll("write|"+path) < s.profile.WriteErrRate {
			return fmt.Errorf("write %s: %w", path, ErrMediaError)
		}
	case StorageSync:
		if s.profile.SyncErrRate > 0 && s.roll("fsync|"+path) < s.profile.SyncErrRate {
			return fmt.Errorf("fsync %s: %w", path, ErrFsyncLost)
		}
	case StorageRead:
		if s.profile.ReadErrRate > 0 && s.roll("read|"+path) < s.profile.ReadErrRate {
			return fmt.Errorf("read %s: %w", path, ErrMediaError)
		}
	}
	return nil
}

// Rot applies silent bit rot: with probability BitRotRate it returns a
// copy of data with one deterministically chosen byte inverted, and no
// error — the disk that lies without even raising its voice. The
// caller's self-verification (CRC frames, sha256 footers) is the only
// defense.
func (s *StorageFaults) Rot(path string, data []byte) []byte {
	if s == nil || s.profile.BitRotRate <= 0 || len(data) == 0 {
		return data
	}
	if s.roll("rot|"+path) >= s.profile.BitRotRate {
		return data
	}
	out := make([]byte, len(data))
	copy(out, data)
	pos := int(s.roll("rotpos|"+path) * float64(len(out)))
	if pos >= len(out) {
		pos = len(out) - 1
	}
	out[pos] ^= 0xff
	return out
}

// TearKeep decides how many of n unsynced tail bytes survive a crash
// for the file at path — deterministic per (seed, path, crash count).
func (s *StorageFaults) TearKeep(path string, n int64) int64 {
	if s == nil || n <= 0 {
		return 0
	}
	frac := s.profile.TearFrac
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	keep := int64(s.roll("tear|"+path) * frac * float64(n+1))
	if keep > n {
		keep = n
	}
	return keep
}

// RevertRename decides whether a crash undoes an un-dir-synced rename.
func (s *StorageFaults) RevertRename(path string) bool {
	if s == nil || s.profile.RenameRevertRate <= 0 {
		return false
	}
	return s.roll("rename|"+path) < s.profile.RenameRevertRate
}
