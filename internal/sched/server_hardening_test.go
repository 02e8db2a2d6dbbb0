package sched

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func decodeErrorBody(t *testing.T, w *httptest.ResponseRecorder) errorBody {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
		t.Fatalf("error body %q: %v", w.Body, err)
	}
	return eb
}

// TestServerRouteTable pins the whole route contract: wrong methods get
// 405 with an Allow header, unknown paths get a typed JSON 404, and
// every response carries a request ID.
func TestServerRouteTable(t *testing.T) {
	srv := NewServer(newIdleScheduler(t, Config{}))
	routes := []struct {
		path  string
		allow string // the one allowed method
		probe string // a method that must be rejected
	}{
		{"/api/submit", http.MethodPost, http.MethodGet},
		{"/api/drain", http.MethodPost, http.MethodDelete},
		{"/api/status", http.MethodGet, http.MethodPost},
		{"/api/campaigns/x", http.MethodGet, http.MethodPut},
		{"/healthz", http.MethodGet, http.MethodPost},
		{"/readyz", http.MethodGet, http.MethodPost},
	}
	for _, rt := range routes {
		req := httptest.NewRequest(rt.probe, rt.path, nil)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: %d, want 405", rt.probe, rt.path, w.Code)
		}
		if got := w.Header().Get("Allow"); got != rt.allow {
			t.Fatalf("%s %s: Allow=%q, want %q", rt.probe, rt.path, got, rt.allow)
		}
		if eb := decodeErrorBody(t, w); eb.Code != codeMethod {
			t.Fatalf("%s %s: code=%q, want %q", rt.probe, rt.path, eb.Code, codeMethod)
		}
		if w.Header().Get("X-Request-ID") == "" {
			t.Fatalf("%s %s: response missing X-Request-ID", rt.probe, rt.path)
		}
	}

	// Unknown paths are a typed JSON 404, not the stdlib's text page.
	w := getPath(t, srv, "/api/nope")
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown route: %d", w.Code)
	}
	if eb := decodeErrorBody(t, w); eb.Code != codeNotFound {
		t.Fatalf("unknown route code: %q", eb.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("unknown route content type: %q", ct)
	}

	// Request IDs are unique per request.
	a := getPath(t, srv, "/healthz").Header().Get("X-Request-ID")
	b := getPath(t, srv, "/healthz").Header().Get("X-Request-ID")
	if a == b {
		t.Fatalf("request IDs not unique: %q", a)
	}
}

// TestServerSubmitBodyHardening pins the body-parsing defenses: an
// oversize body is a typed 413, an unknown field is a 400 that names
// the offending key.
func TestServerSubmitBodyHardening(t *testing.T) {
	s := newIdleScheduler(t, Config{})
	srv := NewServerWith(s, ServerConfig{MaxBodyBytes: 512})

	big := strings.NewReader(`{"tenant":"` + strings.Repeat("a", 1024) + `"}`)
	req := httptest.NewRequest(http.MethodPost, "/api/submit", big)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize submit: %d %s", w.Code, w.Body)
	}
	if eb := decodeErrorBody(t, w); eb.Code != codeOversize {
		t.Fatalf("oversize code: %q", eb.Code)
	}

	req = httptest.NewRequest(http.MethodPost, "/api/submit",
		strings.NewReader(`{"tenant":"alice","sparez":["x"]}`))
	w = httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %s", w.Code, w.Body)
	}
	eb := decodeErrorBody(t, w)
	if eb.Code != codeValidation || !strings.Contains(eb.Error, "sparez") {
		t.Fatalf("unknown-field rejection must name the field: %+v", eb)
	}
}

// TestServerTenantRateLimit pins the token bucket on a simulated clock:
// bursts pass, the next submit 429s with a Retry-After, time restores
// tokens, and tenants do not share buckets.
func TestServerTenantRateLimit(t *testing.T) {
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { return now }
	s := newIdleScheduler(t, Config{})
	srv := NewServerWith(s, ServerConfig{
		RateLimit: RateLimit{PerSecond: 1, Burst: 2},
		Now:       clock,
	})

	// Two submissions burst through (the second is a duplicate → 409,
	// but it consumed a token, proving the limiter runs before Submit).
	if w := postJSON(t, srv, "/api/submit", miniSub("alice", "rl-1", []string{"rl-0"}, 5)); w.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", w.Code, w.Body)
	}
	if w := postJSON(t, srv, "/api/submit", miniSub("alice", "rl-1", []string{"rl-0"}, 5)); w.Code != http.StatusConflict {
		t.Fatalf("second submit: %d %s", w.Code, w.Body)
	}
	w := postJSON(t, srv, "/api/submit", miniSub("alice", "rl-2", []string{"rl-9"}, 5))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("bucket-dry submit: %d %s", w.Code, w.Body)
	}
	if eb := decodeErrorBody(t, w); eb.Code != codeRateLimited {
		t.Fatalf("bucket-dry code: %q", eb.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("rate-limited response missing Retry-After")
	}

	// Another tenant has its own bucket.
	if w := postJSON(t, srv, "/api/submit", miniSub("bob", "rl-3", []string{"rl-8"}, 5)); w.Code != http.StatusAccepted {
		t.Fatalf("other tenant: %d %s", w.Code, w.Body)
	}

	// A second of simulated time refills one token.
	now = now.Add(time.Second)
	if w := postJSON(t, srv, "/api/submit", miniSub("alice", "rl-4", []string{"rl-7"}, 5)); w.Code != http.StatusAccepted {
		t.Fatalf("post-refill submit: %d %s", w.Code, w.Body)
	}
}

// TestServerDuplicateCarriesDigest pins the idempotency handshake: a
// 409 duplicate-campaign advertises the admitted spec's schedule
// digest.
func TestServerDuplicateCarriesDigest(t *testing.T) {
	s := newIdleScheduler(t, Config{})
	srv := NewServer(s)
	sub := miniSub("alice", "dup-1", []string{"dup-0"}, 5)
	if w := postJSON(t, srv, "/api/submit", sub); w.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", w.Code, w.Body)
	}
	w := postJSON(t, srv, "/api/submit", sub)
	if w.Code != http.StatusConflict {
		t.Fatalf("duplicate: %d %s", w.Code, w.Body)
	}
	eb := decodeErrorBody(t, w)
	if eb.Code != codeDuplicate {
		t.Fatalf("duplicate code: %q", eb.Code)
	}
	if want := sub.Spec.ScheduleDigest(); eb.Digest != want {
		t.Fatalf("duplicate digest %q, want %q", eb.Digest, want)
	}
}

// TestServerHealthEndpoints walks /healthz and /readyz through the
// lifecycle states.
func TestServerHealthEndpoints(t *testing.T) {
	s := newIdleScheduler(t, Config{})
	srv := NewServer(s)

	assertHealth := func(path string, code int, state string) {
		t.Helper()
		w := getPath(t, srv, path)
		if w.Code != code {
			t.Fatalf("%s: %d %s, want %d", path, w.Code, w.Body, code)
		}
		var hb healthBody
		if err := json.Unmarshal(w.Body.Bytes(), &hb); err != nil {
			t.Fatalf("%s body: %v", path, err)
		}
		if hb.State != state {
			t.Fatalf("%s state %q, want %q", path, hb.State, state)
		}
	}

	assertHealth("/healthz", http.StatusOK, "ok")
	assertHealth("/readyz", http.StatusOK, "ready")

	// Draining: alive, not ready.
	s.mu.Lock()
	s.st.Draining = true
	s.mu.Unlock()
	assertHealth("/healthz", http.StatusOK, "ok")
	assertHealth("/readyz", http.StatusServiceUnavailable, "draining")

	// Stopping preempts draining in the readiness report.
	s.mu.Lock()
	s.st.Draining = false
	s.stopping = true
	s.mu.Unlock()
	assertHealth("/readyz", http.StatusServiceUnavailable, "stopping")

	// Dead: both endpoints 503 and name the fatal error.
	s.mu.Lock()
	s.stopping = false
	s.fatal = errors.New("journal ate itself")
	s.mu.Unlock()
	assertHealth("/healthz", http.StatusServiceUnavailable, "dead")
	assertHealth("/readyz", http.StatusServiceUnavailable, "dead")

	// A dead scheduler's submit is a typed, retryable 503.
	w := postJSON(t, srv, "/api/submit", miniSub("alice", "hz-1", []string{"hz-0"}, 5))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit to dead scheduler: %d %s", w.Code, w.Body)
	}
	if eb := decodeErrorBody(t, w); eb.Code != codeDead {
		t.Fatalf("dead submit code: %q", eb.Code)
	}
	// Drain against a dead scheduler is refused, not accepted.
	if w := postJSON(t, srv, "/api/drain", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("drain dead scheduler: %d %s", w.Code, w.Body)
	}
}

// TestServerPanicContainment pins the middleware barrier: a panicking
// handler becomes a logged 500 with the request ID in the body, and the
// server keeps serving afterward.
func TestServerPanicContainment(t *testing.T) {
	srv := NewServer(newIdleScheduler(t, Config{}))
	srv.mux.HandleFunc("/api/boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	w := getPath(t, srv, "/api/boom")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler: %d %s", w.Code, w.Body)
	}
	eb := decodeErrorBody(t, w)
	if eb.Code != codeInternal {
		t.Fatalf("panic code: %q", eb.Code)
	}
	id := w.Header().Get("X-Request-ID")
	if id == "" || !strings.Contains(eb.Error, id) {
		t.Fatalf("500 body %q does not cite request ID %q", eb.Error, id)
	}
	// The server survived; the next request is served normally.
	if w := getPath(t, srv, "/healthz"); w.Code != http.StatusOK {
		t.Fatalf("post-panic health: %d %s", w.Code, w.Body)
	}
	// http.ErrAbortHandler stays net/http's control flow: re-panicked,
	// not converted to a 500.
	srv.mux.HandleFunc("/api/abort", func(http.ResponseWriter, *http.Request) {
		panic(http.ErrAbortHandler)
	})
	defer func() {
		if r := recover(); r != http.ErrAbortHandler {
			t.Fatalf("ErrAbortHandler was swallowed: %v", r)
		}
	}()
	getPath(t, srv, "/api/abort")
	t.Fatal("unreachable: abort must re-panic")
}

// TestSubmitStatusMapping pins the full typed-error → (status, code)
// table, including errors the other tests cannot easily provoke over
// HTTP.
func TestSubmitStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		code int
		kind string
	}{
		{ErrQuotaExceeded, http.StatusForbidden, codeQuota},
		{ErrSaturated, http.StatusTooManyRequests, codeSaturated},
		{ErrStopped, http.StatusServiceUnavailable, codeStopped},
		{ErrSchedulerDown, http.StatusServiceUnavailable, codeDead},
		{ErrDraining, http.StatusServiceUnavailable, codeDraining},
		{ErrDuplicateCampaign, http.StatusConflict, codeDuplicate},
		{ErrSerialInUse, http.StatusConflict, codeSerialInUse},
		{errors.New("sched: campaign without serials"), http.StatusBadRequest, codeValidation},
	}
	for _, c := range cases {
		wrapped := errorsJoin(c.err)
		code, kind := submitStatus(wrapped)
		if code != c.code || kind != c.kind {
			t.Fatalf("submitStatus(%v) = (%d, %q), want (%d, %q)", c.err, code, kind, c.code, c.kind)
		}
	}
}

// errorsJoin wraps an error one level deep, the way Submit's fmt.Errorf
// chains do, so the table exercises errors.Is traversal rather than
// equality.
func errorsJoin(err error) error {
	return &wrappedErr{err}
}

type wrappedErr struct{ inner error }

func (w *wrappedErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrappedErr) Unwrap() error { return w.inner }
