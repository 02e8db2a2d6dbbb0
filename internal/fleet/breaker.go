package fleet

import (
	"context"
	"errors"
	"sort"
	"sync"

	"invisiblebits/internal/faults"
)

// Circuit breakers isolate dying rigs. A device with a flaky link fails,
// gets retried (with backoff charged to the simulated clock), fails
// again — and without a breaker every fleet pass pays that retry tax
// again, stealing bench time from healthy carriers. The breaker watches
// consecutive per-device failures and, once a device trips, short-
// circuits further operations against it until a backoff expires; a
// device that keeps tripping is quarantined outright, which makes spare
// re-routing and parity reconstruction kick in immediately instead of
// after another full retry budget.
//
// States, on the simulated clock:
//
//	closed      → operations flow; N consecutive failures open the breaker
//	open        → operations are rejected until backoffHours of simulated
//	              time elapse (backoff doubles per trip)
//	half-open   → one probe operation is let through; success closes the
//	              breaker, failure re-opens it with doubled backoff
//	quarantined → terminal: reached after QuarantineAfterTrips trips or
//	              any permanent fault; the device is written off
var (
	// ErrBreakerOpen rejects an operation because the device's breaker is
	// open and its backoff has not yet elapsed on the simulated clock.
	ErrBreakerOpen = errors.New("fleet: circuit breaker open")
	// ErrQuarantined rejects an operation because the device has been
	// written off (repeated trips or a permanent fault).
	ErrQuarantined = errors.New("fleet: device quarantined")
)

// BreakerState is a breaker's position in the state machine.
type BreakerState string

// Breaker states.
const (
	BreakerClosed      BreakerState = "closed"
	BreakerOpen        BreakerState = "open"
	BreakerHalfOpen    BreakerState = "half-open"
	BreakerQuarantined BreakerState = "quarantined"
)

// BreakerConfig parameterizes the per-device state machine. The zero
// value selects the defaults.
type BreakerConfig struct {
	// FailureThreshold is the consecutive-failure count that opens a
	// closed breaker; 0 means DefaultFailureThreshold.
	FailureThreshold int
	// BaseBackoffHours is the simulated-clock backoff after the first
	// trip, doubling per subsequent trip up to DefaultMaxBackoffHours;
	// 0 means DefaultBaseBackoffHours.
	BaseBackoffHours float64
	// QuarantineAfterTrips writes the device off after this many trips;
	// 0 means DefaultQuarantineAfterTrips.
	QuarantineAfterTrips int
}

// Breaker defaults: a link that drops three ops in a row is parked for
// an hour of simulated bench time, and a device that trips three times
// is handed to the spares bin.
const (
	DefaultFailureThreshold     = 3
	DefaultBaseBackoffHours     = 1.0
	DefaultMaxBackoffHours      = 16.0
	DefaultQuarantineAfterTrips = 3
)

func (c BreakerConfig) failureThreshold() int {
	if c.FailureThreshold <= 0 {
		return DefaultFailureThreshold
	}
	return c.FailureThreshold
}

func (c BreakerConfig) baseBackoffHours() float64 {
	if c.BaseBackoffHours <= 0 {
		return DefaultBaseBackoffHours
	}
	return c.BaseBackoffHours
}

func (c BreakerConfig) quarantineAfterTrips() int {
	if c.QuarantineAfterTrips <= 0 {
		return DefaultQuarantineAfterTrips
	}
	return c.QuarantineAfterTrips
}

// Breaker is one device's circuit breaker. Safe for concurrent use —
// fleet workers share the set across goroutines.
type Breaker struct {
	mu  sync.Mutex
	cfg BreakerConfig

	state        BreakerState
	consecFails  int
	trips        int
	openedAt     float64 // simulated clock at the last trip
	backoffHours float64
	probing      bool // a half-open probe is in flight

	transient int // classified fault observations
	permanent int
	skipped   int // operations rejected while open/quarantined
}

func newBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg, state: BreakerClosed}
}

// Allow asks whether an operation against the device may proceed at the
// given simulated clock. Open breakers whose backoff has elapsed
// transition to half-open and admit exactly one probe; concurrent
// callers beyond the probe are rejected with ErrBreakerOpen.
func (b *Breaker) Allow(clockHours float64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerQuarantined:
		b.skipped++
		return ErrQuarantined
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if clockHours < b.openedAt+b.backoffHours {
			b.skipped++
			return ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return nil
	case BreakerHalfOpen:
		if b.probing {
			b.skipped++
			return ErrBreakerOpen
		}
		b.probing = true
		return nil
	}
	return nil
}

// Record reports the outcome of an operation Allow admitted. A nil err
// (success) closes the breaker and resets its counters. Permanent
// faults quarantine immediately. Context cancellation is the caller
// giving up, not the device failing, and is ignored. Other failures
// count toward the consecutive-failure threshold; in half-open state a
// single failure re-opens with doubled backoff.
func (b *Breaker) Record(err error, clockHours float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerQuarantined {
		return
	}
	wasProbe := b.probing
	b.probing = false

	if err == nil {
		b.state = BreakerClosed
		b.consecFails = 0
		b.trips = 0
		b.backoffHours = 0
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return
	}
	switch {
	case faults.IsPermanent(err):
		b.permanent++
	case faults.IsTransient(err):
		b.transient++
	}
	if faults.IsPermanent(err) {
		b.state = BreakerQuarantined
		return
	}

	if wasProbe && b.state == BreakerHalfOpen {
		b.trip(clockHours)
		return
	}
	b.consecFails++
	if b.consecFails >= b.cfg.failureThreshold() {
		b.trip(clockHours)
	}
}

// trip opens the breaker with the next backoff step; too many trips
// quarantine the device.
func (b *Breaker) trip(clockHours float64) {
	b.trips++
	if b.trips >= b.cfg.quarantineAfterTrips() {
		b.state = BreakerQuarantined
		return
	}
	b.state = BreakerOpen
	b.openedAt = clockHours
	b.consecFails = 0
	backoff := b.cfg.baseBackoffHours()
	for i := 1; i < b.trips; i++ {
		backoff *= 2
	}
	if backoff > DefaultMaxBackoffHours {
		backoff = DefaultMaxBackoffHours
	}
	b.backoffHours = backoff
}

// State returns the breaker's current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// BreakerStats is one device's breaker telemetry, the post-hoc
// explanation of why the fleet stopped (or kept) talking to it.
type BreakerStats struct {
	DeviceID string
	State    BreakerState
	// ConsecutiveFailures is the live failure streak (closed state).
	ConsecutiveFailures int
	// Trips counts closed→open transitions since the last success.
	Trips int
	// TransientFaults / PermanentFaults are the classified failures the
	// breaker has been shown.
	TransientFaults int
	PermanentFaults int
	// SkippedOps counts operations rejected while open or quarantined —
	// the retry budget the breaker saved.
	SkippedOps int
	// BackoffHours is the current open-state backoff.
	BackoffHours float64
}

// BreakerSet holds one breaker per device, keyed by device ID. The zero
// value is not usable; construct with NewBreakerSet. A nil *BreakerSet
// disables breaker enforcement everywhere it is accepted.
type BreakerSet struct {
	mu  sync.Mutex
	cfg BreakerConfig
	m   map[string]*Breaker
}

// NewBreakerSet builds an empty set with the given config.
func NewBreakerSet(cfg BreakerConfig) *BreakerSet {
	return &BreakerSet{cfg: cfg, m: make(map[string]*Breaker)}
}

// For returns the device's breaker, creating it closed on first use.
func (s *BreakerSet) For(deviceID string) *Breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[deviceID]
	if !ok {
		b = newBreaker(s.cfg)
		s.m[deviceID] = b
	}
	return b
}

// allow is the nil-safe gate used by fleet operations.
func (s *BreakerSet) allow(deviceID string, clockHours float64) error {
	if s == nil {
		return nil
	}
	return s.For(deviceID).Allow(clockHours)
}

// record is the nil-safe outcome report used by fleet operations.
func (s *BreakerSet) record(deviceID string, err error, clockHours float64) {
	if s == nil {
		return
	}
	s.For(deviceID).Record(err, clockHours)
}

// Quarantined lists the written-off device IDs, sorted.
func (s *BreakerSet) Quarantined() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for id, b := range s.m {
		if b.State() == BreakerQuarantined {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Stats reports every tracked device's breaker telemetry, sorted by
// device ID.
func (s *BreakerSet) Stats() []BreakerStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BreakerStats, 0, len(s.m))
	for id, b := range s.m {
		b.mu.Lock()
		out = append(out, BreakerStats{
			DeviceID:            id,
			State:               b.state,
			ConsecutiveFailures: b.consecFails,
			Trips:               b.trips,
			TransientFaults:     b.transient,
			PermanentFaults:     b.permanent,
			SkippedOps:          b.skipped,
			BackoffHours:        b.backoffHours,
		})
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].DeviceID < out[j].DeviceID })
	return out
}

// IsRerouteable reports whether err means "stop using this device now"
// — permanent device faults plus breaker rejections — the trigger for
// spare re-routing and parity reconstruction, here and in the scheduler.
func IsRerouteable(err error) bool {
	return faults.IsPermanent(err) || errors.Is(err, ErrBreakerOpen) || errors.Is(err, ErrQuarantined)
}
