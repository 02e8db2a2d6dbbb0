package sched

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// recordedClock is the client test harness: Sleep records every backoff
// delay instead of waiting, so retry schedules are asserted on a
// simulated clock and the tests run in microseconds.
type recordedClock struct {
	delays []time.Duration
}

func (c *recordedClock) sleep(_ context.Context, d time.Duration) error {
	c.delays = append(c.delays, d)
	return nil
}

// scriptedServer serves the scripted responses in order, then keeps
// repeating the last one; it counts total requests.
func scriptedServer(t *testing.T, script ...func(w http.ResponseWriter, r *http.Request)) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		if n >= len(script) {
			n = len(script) - 1
		}
		script[n](w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func respondJSON(code int, v any) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(v) //nolint:errcheck // test fixture
	}
}

func testClient(url string, clock *recordedClock) *Client {
	return &Client{
		BaseURL:     url,
		MaxAttempts: 5,
		BaseBackoff: 100 * time.Millisecond,
		MaxBackoff:  400 * time.Millisecond,
		Rand:        func() float64 { return 1 }, // full jitter: delay is exact
		Sleep:       clock.sleep,
	}
}

// TestClientBackoffGrowsAndCaps pins the retry schedule: exponential
// from BaseBackoff, capped at MaxBackoff, one delay per failed attempt.
func TestClientBackoffGrowsAndCaps(t *testing.T) {
	srv, calls := scriptedServer(t,
		respondJSON(500, errorBody{Error: "boom", Code: codeInternal}),
		respondJSON(500, errorBody{Error: "boom", Code: codeInternal}),
		respondJSON(500, errorBody{Error: "boom", Code: codeInternal}),
		respondJSON(500, errorBody{Error: "boom", Code: codeInternal}),
		respondJSON(200, Status{}),
	)
	clock := &recordedClock{}
	c := testClient(srv.URL, clock)
	if _, err := c.Status(context.Background()); err != nil {
		t.Fatalf("status: %v", err)
	}
	if got := calls.Load(); got != 5 {
		t.Fatalf("attempts: %d, want 5", got)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 400 * time.Millisecond}
	if len(clock.delays) != len(want) {
		t.Fatalf("recorded delays %v, want %v", clock.delays, want)
	}
	for i := range want {
		if clock.delays[i] != want[i] {
			t.Fatalf("delay %d: %v, want %v (schedule %v)", i, clock.delays[i], want[i], clock.delays)
		}
	}
}

// TestClientBackoffJitterStaysInRange pins the equal-jitter envelope:
// with a real random source every delay lands in [d/2, d].
func TestClientBackoffJitterStaysInRange(t *testing.T) {
	c := &Client{BaseBackoff: 100 * time.Millisecond, MaxBackoff: time.Second}
	for n := 0; n < 6; n++ {
		full := 100 * time.Millisecond << uint(n)
		if full > time.Second {
			full = time.Second
		}
		for i := 0; i < 32; i++ {
			d := c.backoff(n, 0)
			if d < full/2 || d > full {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", n, d, full/2, full)
			}
		}
	}
}

// TestClientHonorsRetryAfter pins that a server-provided Retry-After
// overrides the exponential schedule entirely.
func TestClientHonorsRetryAfter(t *testing.T) {
	srv, _ := scriptedServer(t,
		func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "7")
			respondJSON(429, errorBody{Error: "slow down", Code: codeSaturated})(w, r)
		},
		respondJSON(202, struct {
			Campaign string `json:"campaign"`
		}{"ra-1"}),
	)
	clock := &recordedClock{}
	c := testClient(srv.URL, clock)
	if err := c.Submit(context.Background(), miniSub("alice", "ra-1", []string{"ra-0"}, 5)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if len(clock.delays) != 1 || clock.delays[0] != 7*time.Second {
		t.Fatalf("delays %v, want [7s]", clock.delays)
	}
}

// TestClientIdempotentResubmit pins the digest handshake end to end: the
// first submit is admitted but its response is lost in transit; the
// retry draws 409 duplicate-campaign with a matching digest and Submit
// reports success.
func TestClientIdempotentResubmit(t *testing.T) {
	sub := miniSub("alice", "idem-1", []string{"idem-0"}, 5)
	digest := sub.Spec.ScheduleDigest()
	srv, calls := scriptedServer(t,
		respondJSON(202, struct {
			Campaign string `json:"campaign"`
		}{"idem-1"}),
		respondJSON(409, errorBody{Error: "duplicate", Code: codeDuplicate, Digest: digest}),
	)

	// lossyTransport eats the first response after the server processed
	// the request — the network failure mode that makes blind retries
	// dangerous.
	base := http.DefaultTransport
	var eaten atomic.Bool
	lossy := roundTripFunc(func(req *http.Request) (*http.Response, error) {
		resp, err := base.RoundTrip(req)
		if err == nil && eaten.CompareAndSwap(false, true) {
			resp.Body.Close()
			return nil, fmt.Errorf("%s: response eaten in transit", req.URL.Path)
		}
		return resp, err
	})

	clock := &recordedClock{}
	c := testClient(srv.URL, clock)
	c.HTTP = &http.Client{Transport: lossy}
	if err := c.Submit(context.Background(), sub); err != nil {
		t.Fatalf("submit through lossy network: %v", err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d submits, want 2 (original + idempotent retry)", got)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// TestClientRealConflictSurfaces pins the other half of the handshake:
// a 409 whose digest does NOT match (someone else owns the ID) is a
// genuine error, immediately, with the sentinel reachable via
// errors.Is.
func TestClientRealConflictSurfaces(t *testing.T) {
	srv, calls := scriptedServer(t,
		respondJSON(409, errorBody{Error: "duplicate", Code: codeDuplicate, Digest: "somebody-elses"}),
	)
	clock := &recordedClock{}
	c := testClient(srv.URL, clock)
	err := c.Submit(context.Background(), miniSub("alice", "conf-1", []string{"conf-0"}, 5))
	if !errors.Is(err, ErrDuplicateCampaign) {
		t.Fatalf("conflicting submit: %v, want ErrDuplicateCampaign", err)
	}
	if calls.Load() != 1 || len(clock.delays) != 0 {
		t.Fatalf("conflict retried: %d calls, delays %v", calls.Load(), clock.delays)
	}
}

// TestClientNonRetryableGiveUpImmediately pins that deliberate
// rejections — quota, validation, draining — burn exactly one attempt.
func TestClientNonRetryableGiveUpImmediately(t *testing.T) {
	cases := []struct {
		name     string
		status   int
		code     string
		sentinel error
	}{
		{"quota", 403, codeQuota, ErrQuotaExceeded},
		{"validation", 400, codeValidation, nil},
		{"draining", 503, codeDraining, ErrDraining},
	}
	for _, tc := range cases {
		srv, calls := scriptedServer(t, respondJSON(tc.status, errorBody{Error: tc.name, Code: tc.code}))
		clock := &recordedClock{}
		c := testClient(srv.URL, clock)
		err := c.Submit(context.Background(), miniSub("alice", "nr-1", []string{"nr-0"}, 5))
		if err == nil {
			t.Fatalf("%s: submit succeeded", tc.name)
		}
		if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
			t.Fatalf("%s: %v does not match sentinel", tc.name, err)
		}
		if calls.Load() != 1 || len(clock.delays) != 0 {
			t.Fatalf("%s: retried a deliberate rejection (%d calls, %v)", tc.name, calls.Load(), clock.delays)
		}
	}
}

// TestClientRetryableStatusesRecover pins that rate limits and dead/
// stopped schedulers are retried to success.
func TestClientRetryableStatusesRecover(t *testing.T) {
	for _, code := range []string{codeRateLimited, codeStopped, codeDead} {
		status := 429
		if code != codeRateLimited {
			status = 503
		}
		srv, calls := scriptedServer(t,
			respondJSON(status, errorBody{Error: code, Code: code}),
			respondJSON(202, struct {
				Campaign string `json:"campaign"`
			}{"rt-1"}),
		)
		clock := &recordedClock{}
		c := testClient(srv.URL, clock)
		if err := c.Submit(context.Background(), miniSub("alice", "rt-1", []string{"rt-0"}, 5)); err != nil {
			t.Fatalf("%s: %v", code, err)
		}
		if calls.Load() != 2 {
			t.Fatalf("%s: %d attempts, want 2", code, calls.Load())
		}
	}
}

// TestClientAttemptBudget pins that MaxAttempts bounds persistence and
// the final error names the count and the last failure.
func TestClientAttemptBudget(t *testing.T) {
	srv, calls := scriptedServer(t, respondJSON(500, errorBody{Error: "forever down", Code: codeInternal}))
	clock := &recordedClock{}
	c := testClient(srv.URL, clock)
	c.MaxAttempts = 3
	err := c.Submit(context.Background(), miniSub("alice", "ab-1", []string{"ab-0"}, 5))
	if err == nil {
		t.Fatal("submit succeeded against a dead server")
	}
	if calls.Load() != 3 || len(clock.delays) != 2 {
		t.Fatalf("budget: %d attempts, %d delays", calls.Load(), len(clock.delays))
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 500 {
		t.Fatalf("final error lost the typed failure: %v", err)
	}
}

// TestClientContextCancellation pins that a cancelled context stops the
// retry loop promptly with the context's error.
func TestClientContextCancellation(t *testing.T) {
	srv, _ := scriptedServer(t, respondJSON(500, errorBody{Error: "down", Code: codeInternal}))
	c := &Client{
		BaseURL:     srv.URL,
		MaxAttempts: 100,
		Rand:        func() float64 { return 1 },
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.Sleep = func(ctx context.Context, d time.Duration) error {
		cancel() // cancel during the first backoff
		return ctx.Err()
	}
	if _, err := c.Status(ctx); err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled status: %v, want context.Canceled", err)
	}
}

// TestClientAgainstLiveServer drives the typed client against the real
// Server over a real listener: submit, drain, await quiescence, read the
// finished campaign.
func TestClientAgainstLiveServer(t *testing.T) {
	dir := t.TempDir()
	s, err := New(dir, Config{KeyFor: testKeyFor})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(s))
	defer srv.Close()
	c := &Client{BaseURL: srv.URL}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sub := miniSub("alice", "live-1", []string{"live-0"}, 7.5)
	if err := c.Submit(ctx, sub); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// A second Submit of the same spec is a no-op success (digest match).
	if err := c.Submit(ctx, sub); err != nil {
		t.Fatalf("idempotent resubmit: %v", err)
	}
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err := c.AwaitQuiescent(ctx, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("await quiescent: %v", err)
	}
	if st.Done != 1 || st.Active != 0 {
		t.Fatalf("final status: %+v", st)
	}
	cs, err := c.Campaign(ctx, "live-1")
	if err != nil {
		t.Fatalf("campaign status: %v", err)
	}
	if cs.State != "done" {
		t.Fatalf("campaign state %q: %+v", cs.State, cs)
	}
	if _, err := c.Campaign(ctx, "nope"); err == nil {
		t.Fatal("unknown campaign did not error")
	}
}
