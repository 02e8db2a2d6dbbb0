package faults

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"invisiblebits/internal/rng"
)

// HTTP fault taxonomy. The service surface sits between tenants and
// multi-day imprint campaigns; the network between them drops packets,
// stalls, resets connections mid-body, and — worst of all — delivers a
// request whose response is then lost, so the client cannot tell an
// admitted campaign from a rejected one. Each hazard gets a typed,
// transient-classified sentinel so retry policy can be tested against a
// network that misbehaves exactly as deterministically as the silicon
// and the disk already do.
var (
	// ErrConnDropped is a connection that never reached the listener
	// (refused, or the listener is mid-restart). The request was NOT
	// delivered; retrying is always safe.
	ErrConnDropped error = &classified{"faults: connection dropped before delivery", ErrTransient}
	// ErrResponseLost is the nasty one: the request WAS delivered and
	// acted on, but the response died on the way back. A blind retry of a
	// non-idempotent request double-submits; only end-to-end idempotency
	// makes retrying safe.
	ErrResponseLost error = &classified{"faults: response lost after delivery", ErrTransient}
	// ErrConnReset is a connection reset partway through the response
	// body: the status line arrived, the payload did not.
	ErrConnReset error = &classified{"faults: connection reset mid-body", ErrTransient}
)

// HTTPProfile parameterizes the seeded HTTP chaos engine. The zero
// value injects nothing. Rates are per-request probabilities; every
// decision is a pure function of (seed, method+path, per-site sequence
// number), so a fixed seed replays the same fault pattern per request
// stream regardless of how goroutines interleave their streams.
type HTTPProfile struct {
	// Seed decorrelates storms; the same seed replays the same one.
	Seed uint64

	// DropRate is the probability a request is dropped before delivery
	// (ErrConnDropped) — the server never sees it.
	DropRate float64
	// StallRate is the probability a request is delayed by up to
	// StallMax before delivery (the slow, not broken, network).
	StallRate float64
	// StallMax bounds injected stalls; 0 means 50ms.
	StallMax time.Duration
	// ResponseLossRate is the probability the request is delivered and
	// processed but its response discarded (ErrResponseLost).
	ResponseLossRate float64
	// TruncateRate is the probability the response body is cut short
	// with a clean EOF — a proxy that gave up flushing.
	TruncateRate float64
	// ResetRate is the probability the response body errors partway
	// through with ErrConnReset.
	ResetRate float64
}

// Inert reports whether the profile injects nothing.
func (p HTTPProfile) Inert() bool {
	return p == HTTPProfile{} || p == HTTPProfile{Seed: p.Seed}
}

func (p HTTPProfile) stallMax() time.Duration {
	if p.StallMax <= 0 {
		return 50 * time.Millisecond
	}
	return p.StallMax
}

// HTTPChaos is the seeded decision engine for network hazards, built on
// the same hash-everything determinism as StorageFaults: a decision
// site is (method+path, sequence number). It is safe for concurrent
// use — one engine is shared by every client in a storm.
type HTTPChaos struct {
	profile HTTPProfile
	base    uint64

	mu     sync.Mutex
	seq    map[string]uint64
	outage int // requests left to refuse unconditionally
}

// NewHTTPChaos builds the seeded HTTP chaos engine.
func NewHTTPChaos(p HTTPProfile) *HTTPChaos {
	return &HTTPChaos{
		profile: p,
		base:    p.Seed ^ rng.HashString("faults/http"),
		seq:     make(map[string]uint64),
	}
}

// Profile returns the engine's configuration.
func (c *HTTPChaos) Profile() HTTPProfile { return c.profile }

// KillListener refuses the next n requests (across all sites) with
// ErrConnDropped before delivery — the window between a killed listener
// and its resumed replacement, when connections bounce off a dead port.
func (c *HTTPChaos) KillListener(n int) {
	c.mu.Lock()
	c.outage = n
	c.mu.Unlock()
}

// takeOutage consumes one outage slot if the listener is "down".
func (c *HTTPChaos) takeOutage() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.outage > 0 {
		c.outage--
		return true
	}
	return false
}

// roll returns a uniform [0,1) variate for one decision site, advancing
// the site's sequence counter.
func (c *HTTPChaos) roll(site string) float64 {
	c.mu.Lock()
	n := c.seq[site]
	c.seq[site] = n + 1
	c.mu.Unlock()
	h := rng.HashString(fmt.Sprintf("%s|%d", site, n))
	return rng.NewSource(c.base ^ h).Float64()
}

// Transport wraps next (nil means http.DefaultTransport) in the chaos
// layer. Faults injected before delivery (drop, outage) are safe to
// retry blindly; ErrResponseLost deliberately is not — the wrapped
// transport DID complete the round trip, exactly like a real network
// that ate the response after the server committed.
func (c *HTTPChaos) Transport(next http.RoundTripper) http.RoundTripper {
	if next == nil {
		next = http.DefaultTransport
	}
	return &chaosTransport{engine: c, next: next}
}

type chaosTransport struct {
	engine *HTTPChaos
	next   http.RoundTripper
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	c := t.engine
	p := c.profile
	site := req.Method + " " + req.URL.Path
	if c.takeOutage() {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrConnDropped)
	}
	if p.DropRate > 0 && c.roll("drop|"+site) < p.DropRate {
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrConnDropped)
	}
	if p.StallRate > 0 && c.roll("stall|"+site) < p.StallRate {
		d := time.Duration(c.roll("stallfor|"+site) * float64(p.stallMax()))
		select {
		case <-time.After(d):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if p.ResponseLossRate > 0 && c.roll("lose|"+site) < p.ResponseLossRate {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a response we are about to eat
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrResponseLost)
	}
	if p.TruncateRate > 0 && c.roll("trunc|"+site) < p.TruncateRate {
		return truncateBody(resp, c.roll("truncat|"+site), nil), nil
	}
	if p.ResetRate > 0 && c.roll("reset|"+site) < p.ResetRate {
		at := c.roll("resetat|" + site)
		return truncateBody(resp, at, fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, ErrConnReset)), nil
	}
	return resp, nil
}

// truncateBody replaces resp.Body with a prefix of itself: frac of the
// real body (at least one byte short of it when possible), ending in a
// clean EOF when errAfter is nil or in errAfter otherwise. The original
// Content-Length header survives, so length-checking clients see the
// mismatch a real truncation produces.
func truncateBody(resp *http.Response, frac float64, errAfter error) *http.Response {
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		data = nil // the real network beat us to the truncation
	}
	keep := int(frac * float64(len(data)))
	if keep >= len(data) && len(data) > 0 {
		keep = len(data) - 1
	}
	resp.Body = &erringBody{r: bytes.NewReader(data[:keep]), err: errAfter}
	return resp
}

// erringBody yields its bytes, then err (or a clean EOF when err is
// nil).
type erringBody struct {
	r   *bytes.Reader
	err error
}

func (b *erringBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF && b.err != nil {
		return n, b.err
	}
	return n, err
}

func (b *erringBody) Close() error { return nil }
