package sched

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"invisiblebits/internal/faults"
	"invisiblebits/internal/wal"
)

// Server is the hardened net/http JSON facade over a Scheduler — the
// service surface cmd/ibserve exposes. Routes:
//
//	POST /api/submit          {tenant, spec, spares} → 202 {campaign}
//	GET  /api/status          → 200 Status
//	GET  /api/campaigns/{id}  → 200 CampaignStatus | 404
//	POST /api/drain           → 202 Status (drain continues server-side)
//	GET  /healthz             → 200 | 503 (liveness: scheduler loop alive)
//	GET  /readyz              → 200 | 503 (readiness: accepting work)
//
// Every request passes through one middleware stack: a request ID
// (echoed as X-Request-ID and attached to every log line), a structured
// access log, a panic-recovery barrier that converts handler panics
// into logged 500s instead of killed connections, and a MaxBytesReader
// body cap. Typed rejections map onto status codes AND machine-readable
// error codes so clients build retry policy without parsing prose:
// quota → 403, rate limit and saturation → 429 (with Retry-After),
// draining/stopped/dead → 503, duplicates and serial conflicts → 409
// (duplicates carry the admitted spec's digest — the idempotency
// token), oversize body → 413, validation → 400.
type Server struct {
	s   *Scheduler
	mux *http.ServeMux
	log *slog.Logger

	maxBody int64
	limiter *tenantLimiter

	reqBase string
	reqSeq  atomic.Uint64

	drainOnce sync.Once
}

// ServerConfig parameterizes the HTTP facade. The zero value serves
// with sane defaults: 1 MiB body cap, no rate limiting, discarded logs.
type ServerConfig struct {
	// Logger receives the structured access log, recovered panics, and
	// response-encoding failures. Nil discards.
	Logger *slog.Logger
	// MaxBodyBytes caps request bodies (0 means DefaultMaxBodyBytes;
	// negative disables the cap).
	MaxBodyBytes int64
	// RateLimit is the per-tenant submission token bucket; the zero
	// value disables limiting.
	RateLimit RateLimit
	// Now is the rate limiter's clock (nil means time.Now) — injectable
	// so limiter tests run on simulated time.
	Now func() time.Time
}

// DefaultMaxBodyBytes bounds request bodies: a campaign submission is a
// few KiB of JSON plus the base64 message, and the largest catalog
// device holds 64 KiB of SRAM — 1 MiB is an order of magnitude of
// headroom, not an invitation.
const DefaultMaxBodyBytes = 1 << 20

// NewServer wraps a scheduler in its HTTP facade with default hardening
// (body caps and panic recovery on, logging and rate limiting off).
func NewServer(s *Scheduler) *Server {
	return NewServerWith(s, ServerConfig{})
}

// NewServerWith wraps a scheduler in its HTTP facade with explicit
// hardening configuration.
func NewServerWith(s *Scheduler, cfg ServerConfig) *Server {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	maxBody := cfg.MaxBodyBytes
	if maxBody == 0 {
		maxBody = DefaultMaxBodyBytes
	}
	var base [4]byte
	rand.Read(base[:]) //nolint:errcheck // crypto/rand.Read never fails
	srv := &Server{
		s:       s,
		mux:     http.NewServeMux(),
		log:     logger,
		maxBody: maxBody,
		limiter: newTenantLimiter(cfg.RateLimit, cfg.Now),
		reqBase: hex.EncodeToString(base[:]),
	}
	srv.mux.HandleFunc("/api/submit", srv.handleSubmit)
	srv.mux.HandleFunc("/api/status", srv.handleStatus)
	srv.mux.HandleFunc("/api/campaigns/", srv.handleCampaign)
	srv.mux.HandleFunc("/api/drain", srv.handleDrain)
	srv.mux.HandleFunc("/healthz", srv.handleHealthz)
	srv.mux.HandleFunc("/readyz", srv.handleReadyz)
	srv.mux.HandleFunc("/", srv.handleNotFound)
	return srv
}

// discardHandler is a slog.Handler that drops everything (slog has no
// io.Discard equivalent before Go 1.24's DiscardHandler).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// ctxKey keys request-scoped values.
type ctxKey int

const reqIDKey ctxKey = iota

// RequestID returns the request ID the middleware assigned, or "" for a
// context that never passed through the server.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(reqIDKey).(string)
	return id
}

// statusWriter records the committed status code for the access log and
// for the panic barrier (a panic after headers committed cannot 500).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// ServeHTTP implements http.Handler: the middleware stack wrapping the
// route table.
func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := fmt.Sprintf("%s-%06d", srv.reqBase, srv.reqSeq.Add(1))
	r = r.WithContext(context.WithValue(r.Context(), reqIDKey, id))
	w.Header().Set("X-Request-ID", id)
	if srv.maxBody > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, srv.maxBody)
	}
	sw := &statusWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler { // net/http's own control flow
				panic(rec)
			}
			srv.log.Error("panic in handler",
				"request_id", id, "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			if sw.status == 0 {
				srv.writeJSON(sw, r, http.StatusInternalServerError,
					errorBody{Error: "internal server error (request " + id + ")", Code: codeInternal})
			}
		}
		srv.log.Info("request",
			"request_id", id, "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration_ms", float64(time.Since(start).Microseconds())/1000)
	}()
	srv.mux.ServeHTTP(sw, r)
}

// Machine-readable rejection codes. The typed ones are rows of
// wireClasses.
const (
	codeQuota       = "quota_exceeded"
	codeSaturated   = "saturated"
	codeRateLimited = "rate_limited"
	codeDraining    = "draining"
	codeStopped     = "stopped"
	codeDead        = "scheduler_dead"
	codeDuplicate   = "duplicate_campaign"
	codeSerialInUse = "serial_in_use"
	codeValidation  = "validation"
	codeOversize    = "oversize_body"
	codeNotFound    = "not_found"
	codeMethod      = "method_not_allowed"
	codeInternal    = "internal"
)

type errorBody struct {
	Error string `json:"error"`
	// Code is the machine-readable rejection class (one of the code*
	// constants).
	Code string `json:"code,omitempty"`
	// Digest rides 409 duplicate-campaign rejections: the schedule
	// digest of the spec that IS admitted under this ID. A retrying
	// client whose own spec digests identically knows its earlier
	// submission landed and the lost response is the only casualty.
	Digest string `json:"digest,omitempty"`
}

// writeJSON writes a JSON response; encoder failures (a client that
// vanished mid-body, a broken pipe) are logged with the request ID so
// the chaos drill's truncated responses are diagnosable instead of
// silent.
func (srv *Server) writeJSON(w http.ResponseWriter, r *http.Request, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		srv.log.Error("response encode failed",
			"request_id", RequestID(r.Context()), "method", r.Method,
			"path", r.URL.Path, "status", code, "error", err)
	}
}

// methodNotAllowed writes the 405 with the Allow header the route table
// contract promises.
func (srv *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request, allow string) {
	w.Header().Set("Allow", allow)
	srv.writeJSON(w, r, http.StatusMethodNotAllowed, errorBody{Error: allow + " only", Code: codeMethod})
}

// wireClass is one row of the wire error table: a rejection class, the
// sentinels errors.Is selects it by (the first is the one a client's
// APIError maps the code back to), its machine-readable code, its HTTP
// status, and whether a client may retry it.
type wireClass struct {
	sentinels []error
	code      string
	status    int
	retry     bool
}

// wireClasses is the one table of typed rejections on the wire: the
// server's submitStatus and the client's APIError.Is and retryable all
// read it. Rate limits and saturation clear as passes complete, and a
// stopped or dead scheduler is restarted by its supervisor, so those
// are retried. Draining is a deliberate operator decision — retrying
// into it only delays the drain — and the 4xx rejections fail
// identically every time.
var wireClasses = []wireClass{
	{[]error{ErrQuotaExceeded}, codeQuota, http.StatusForbidden, false},
	{[]error{ErrSaturated}, codeSaturated, http.StatusTooManyRequests, true},
	{[]error{ErrRateLimited}, codeRateLimited, http.StatusTooManyRequests, true},
	{[]error{ErrStopped}, codeStopped, http.StatusServiceUnavailable, true},
	// A journal failure is what is killing the scheduler right now: the
	// admission did NOT land, and the supervisor restarts and resumes.
	{[]error{ErrSchedulerDown, wal.ErrJournalIO, faults.ErrKilled}, codeDead, http.StatusServiceUnavailable, true},
	{[]error{ErrDraining}, codeDraining, http.StatusServiceUnavailable, false},
	{[]error{ErrDuplicateCampaign}, codeDuplicate, http.StatusConflict, false},
	{[]error{ErrSerialInUse}, codeSerialInUse, http.StatusConflict, false},
}

// wireClassOf returns the table row of a wire code.
func wireClassOf(code string) (wireClass, bool) {
	for _, c := range wireClasses {
		if c.code == code {
			return c, true
		}
	}
	return wireClass{}, false
}

// submitStatus maps a submission's rejection to its HTTP status and
// machine-readable code: the first class whose sentinel it wraps, or a
// validation failure.
func submitStatus(err error) (int, string) {
	for _, c := range wireClasses {
		for _, sentinel := range c.sentinels {
			if errors.Is(err, sentinel) {
				return c.status, c.code
			}
		}
	}
	return http.StatusBadRequest, codeValidation
}

// retryAfterSeconds renders a duration for the Retry-After header
// (whole seconds, at least 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (srv *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		srv.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var sub Submission
	if err := dec.Decode(&sub); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			srv.writeJSON(w, r, http.StatusRequestEntityTooLarge, errorBody{
				Error: fmt.Sprintf("submission body exceeds %d bytes", tooBig.Limit),
				Code:  codeOversize,
			})
			return
		}
		// json's unknown-field error already names the field; pass it
		// through so the client learns WHICH key it misspelled.
		srv.writeJSON(w, r, http.StatusBadRequest, errorBody{Error: "parse submission: " + err.Error(), Code: codeValidation})
		return
	}
	if sub.Tenant != "" {
		if ok, wait := srv.limiter.allow(sub.Tenant); !ok {
			w.Header().Set("Retry-After", retryAfterSeconds(wait))
			err := fmt.Errorf("%w: tenant %q", ErrRateLimited, sub.Tenant)
			code, kind := submitStatus(err)
			srv.writeJSON(w, r, code, errorBody{Error: err.Error(), Code: kind})
			return
		}
	}
	if err := srv.s.Submit(sub); err != nil {
		code, kind := submitStatus(err)
		body := errorBody{Error: err.Error(), Code: kind}
		switch kind {
		case codeSaturated:
			// Load-aware backoff hint: queue depth over chamber slots,
			// paced by the measured wall-clock pass cadence — not a
			// hardcoded constant that is wrong at both extremes.
			w.Header().Set("Retry-After", retryAfterSeconds(srv.s.RetryAfterHint()))
		case codeStopped, codeDead:
			// The supervisor restarts the process; invite a quick retry.
			w.Header().Set("Retry-After", "1")
		case codeDuplicate:
			if digest, ok := srv.s.CampaignDigest(sub.Spec.ID); ok {
				body.Digest = digest
			}
		}
		srv.writeJSON(w, r, code, body)
		return
	}
	srv.writeJSON(w, r, http.StatusAccepted, struct {
		Campaign string `json:"campaign"`
	}{sub.Spec.ID})
}

func (srv *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		srv.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	srv.writeJSON(w, r, http.StatusOK, srv.s.Status())
}

func (srv *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		srv.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/api/campaigns/")
	cs, ok := srv.s.Campaign(id)
	if !ok {
		srv.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "unknown campaign " + id, Code: codeNotFound})
		return
	}
	srv.writeJSON(w, r, http.StatusOK, cs)
}

// handleDrain initiates the drain and returns 202 immediately. The wait
// for quiescence runs server-side on a background context — NOT the
// request's — because a drain takes as long as the longest in-flight
// soak and must not be aborted by a client that hung up (the old
// behavior tied quiescence to r.Context(), so a dropped connection
// cancelled the wait). Clients poll GET /api/status until draining is
// set and active reaches zero.
func (srv *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		srv.methodNotAllowed(w, r, http.MethodPost)
		return
	}
	if err := srv.s.Err(); err != nil {
		srv.writeJSON(w, r, http.StatusServiceUnavailable, errorBody{Error: err.Error(), Code: codeDead})
		return
	}
	srv.drainOnce.Do(func() {
		go func() {
			if err := srv.s.Drain(context.Background()); err != nil {
				srv.log.Error("drain failed", "error", err)
				return
			}
			srv.log.Info("drain complete")
		}()
	})
	srv.writeJSON(w, r, http.StatusAccepted, srv.s.Status())
}

type healthBody struct {
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Degraded reports a salvage-based resume: serving, but something
	// was quarantined or cut (see /api/status's salvage block).
	Degraded bool `json:"degraded,omitempty"`
}

// handleHealthz is liveness: 200 while the scheduling loop is alive (or
// cleanly finished), 503 once it has died on a fatal error — the signal
// for the orchestrator to restart the process so Resume can run.
func (srv *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		srv.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	if err := srv.s.Err(); err != nil {
		srv.writeJSON(w, r, http.StatusServiceUnavailable, healthBody{State: "dead", Error: err.Error()})
		return
	}
	srv.writeJSON(w, r, http.StatusOK, healthBody{State: "ok"})
}

// handleReadyz is readiness: 200 only while the scheduler accepts new
// submissions. Draining, stopping, and dead states all 503 with the
// state named, so load balancers stop routing submissions while status
// queries (which still work) continue against /api/status directly.
func (srv *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		srv.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	if err := srv.s.Err(); err != nil {
		srv.writeJSON(w, r, http.StatusServiceUnavailable, healthBody{State: "dead", Error: err.Error()})
		return
	}
	st := srv.s.Status()
	switch {
	case st.Stopping:
		srv.writeJSON(w, r, http.StatusServiceUnavailable, healthBody{State: "stopping"})
	case st.Drain:
		srv.writeJSON(w, r, http.StatusServiceUnavailable, healthBody{State: "draining"})
	default:
		srv.writeJSON(w, r, http.StatusOK, healthBody{
			State:    "ready",
			Degraded: srv.s.Salvage().Degraded(),
		})
	}
}

func (srv *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	srv.writeJSON(w, r, http.StatusNotFound, errorBody{Error: "no such route " + r.URL.Path, Code: codeNotFound})
}
