package faults

import (
	"errors"
	"sync"
)

// ErrKilled is the sentinel returned by an armed KillSwitch: the
// simulation's stand-in for the process dying abruptly (power loss,
// OOM-kill, an operator tripping over the bench PSU). It is neither
// transient nor permanent — the *device* is fine; the supervisor
// process is gone — so IsTransient and IsPermanent both report false.
var ErrKilled = errors.New("faults: killed at kill point")

// Hook is consulted at named internal checkpoints ("kill points") of a
// long-running supervisor, immediately after each point's work has been
// made durable. Returning non-nil simulates an abrupt process crash at
// exactly that boundary: the caller must stop all further persistence
// and unwind. A nil Hook disables kill-point injection.
type Hook func(point string) error

// KillSwitch is the deterministic reference Hook: it fires ErrKilled at
// the n-th kill point hit (0-based), or at the first hit of a named kill
// point, and at every hit thereafter — once the process is "dead",
// nothing may persist anything else, no matter which goroutine asks. It
// is safe for concurrent use, matching the supervisors it instruments.
type KillSwitch struct {
	mu       sync.Mutex
	armAt    int
	armPoint string
	hits     int
	fired    bool
	point    string
}

// NewKillSwitch arms a crash at the armAt-th kill point hit (0-based).
// Negative armAt never fires, giving tests a no-op hook with counting.
func NewKillSwitch(armAt int) *KillSwitch {
	return &KillSwitch{armAt: armAt}
}

// NewKillSwitchAt arms a crash at the first hit of the named kill point,
// whatever the points crossed before it.
func NewKillSwitchAt(point string) *KillSwitch {
	return &KillSwitch{armAt: -1, armPoint: point}
}

// Hook adapts the switch to the Hook type.
func (k *KillSwitch) Hook() Hook { return k.Hit }

// Hit records one kill-point crossing and returns ErrKilled when the
// switch fires (and forever after).
func (k *KillSwitch) Hit(point string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.fired {
		return ErrKilled
	}
	if k.hits == k.armAt || (k.armPoint != "" && point == k.armPoint) {
		k.fired = true
		k.point = point
		k.hits++
		return ErrKilled
	}
	k.hits++
	return nil
}

// Fired reports whether the switch has gone off.
func (k *KillSwitch) Fired() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.fired
}

// FiredAt names the kill point that tripped the switch ("" before it
// fires).
func (k *KillSwitch) FiredAt() string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.point
}

// Hits returns how many kill points have been crossed (including the
// fatal one).
func (k *KillSwitch) Hits() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.hits
}
