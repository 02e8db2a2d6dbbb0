package sched

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Client is the typed Go client for the ibserve HTTP API. It owns the
// retry policy a human operator should not have to reimplement:
// context-deadline-aware requests, capped exponential backoff with
// jitter, Retry-After honored when the server sends one, and — the part
// that makes retrying SAFE rather than merely persistent — idempotent
// re-submission: a 409 duplicate-campaign whose advertised digest
// matches our own spec's schedule digest means the earlier attempt
// landed and only its response was lost, so Submit reports success.
//
// The zero value is not usable; fill in BaseURL. All other fields
// default sanely.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8321".
	BaseURL string
	// HTTP is the underlying client (nil means http.DefaultClient).
	// Point its Transport at faults.HTTPChaos.Transport to storm-test a
	// retry policy.
	HTTP *http.Client
	// MaxAttempts bounds tries per call including the first (<= 0 means
	// 5).
	MaxAttempts int
	// BaseBackoff is the first retry delay (0 means 100ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 means 5s).
	MaxBackoff time.Duration
	// Rand yields jitter variates in [0,1) (nil means math/rand); pin it
	// in tests for reproducible schedules.
	Rand func() float64
	// Sleep waits out a backoff delay (nil means a context-aware
	// time.Sleep); tests substitute a recorder to run retries on a
	// simulated clock.
	Sleep func(ctx context.Context, d time.Duration) error
	// Logger receives one line per retry (nil discards).
	Logger *slog.Logger
}

// APIError is a typed server rejection: the HTTP status plus the
// machine-readable code and message from the response body. Use
// errors.Is against the sched sentinels (ErrQuotaExceeded, ErrSaturated,
// ErrRateLimited, ErrDraining, ErrStopped, ErrSchedulerDown,
// ErrDuplicateCampaign, ErrSerialInUse) rather than matching codes by
// hand.
type APIError struct {
	StatusCode int
	// Code is the server's machine-readable rejection class.
	Code string
	// Message is the server's human-readable error text.
	Message string
	// Digest is the admitted spec's schedule digest on 409
	// duplicate-campaign rejections.
	Digest string
	// RetryAfter is the parsed Retry-After header (0 when absent).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("sched client: %d %s: %s", e.StatusCode, e.Code, e.Message)
	}
	return fmt.Sprintf("sched client: %d: %s", e.StatusCode, e.Message)
}

// Is maps the wire code back onto the scheduler's error sentinels
// (wireClasses), so client-side and in-process callers share one
// errors.Is vocabulary.
func (e *APIError) Is(target error) bool {
	c, ok := wireClassOf(e.Code)
	return ok && target == c.sentinels[0]
}

// retryable reports whether a later attempt could succeed: the wire
// table decides for a typed code, and any other 5xx is worth retrying.
func (e *APIError) retryable() bool {
	if c, ok := wireClassOf(e.Code); ok {
		return c.retry
	}
	return e.StatusCode >= 500
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 5
	}
	return c.MaxAttempts
}

func (c *Client) baseBackoff() time.Duration {
	if c.BaseBackoff <= 0 {
		return 100 * time.Millisecond
	}
	return c.BaseBackoff
}

func (c *Client) maxBackoff() time.Duration {
	if c.MaxBackoff <= 0 {
		return 5 * time.Second
	}
	return c.MaxBackoff
}

func (c *Client) rand() float64 {
	if c.Rand != nil {
		return c.Rand()
	}
	return rand.Float64()
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.Sleep != nil {
		return c.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Client) log() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.New(discardHandler{})
}

// backoff computes the delay before attempt n (0-based count of
// completed attempts): capped exponential with equal jitter — half
// deterministic so waits genuinely grow, half random so a thundering
// herd decorrelates. A server-provided Retry-After overrides the
// schedule entirely; the server knows its queue, the client only
// guesses.
func (c *Client) backoff(n int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		return retryAfter
	}
	d := c.baseBackoff() << uint(n)
	if limit := c.maxBackoff(); d > limit || d <= 0 {
		d = limit
	}
	return d/2 + time.Duration(c.rand()*float64(d/2))
}

// parseRetryAfter reads the delay-seconds form of the header (the only
// form ibserve emits).
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// do runs one HTTP attempt and decodes the response into out (which may
// be nil to discard the body). Non-2xx responses come back as *APIError.
// Network failures and body-read failures return the transport's error.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimSuffix(c.BaseURL, "/")+path, rd)
	if err != nil {
		return fmt.Errorf("sched client: build request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if out == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // best-effort drain for keep-alive
			return nil
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("sched client: decode %s %s response: %w", method, path, err)
		}
		return nil
	}
	apiErr := &APIError{
		StatusCode: resp.StatusCode,
		RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After")),
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		// A truncated error body still carries the status line; keep
		// the typed error and note the mangling.
		apiErr.Message = fmt.Sprintf("(unreadable error body: %v)", err)
	} else {
		apiErr.Code, apiErr.Message, apiErr.Digest = eb.Code, eb.Error, eb.Digest
	}
	return apiErr
}

// Submit submits a campaign, retrying transient failures. The
// idempotency contract: the spec's schedule digest is computed up
// front, and a 409 duplicate-campaign whose advertised digest equals
// ours is a SUCCESS — our earlier attempt was admitted and only its
// response was lost in transit. A 409 with a different digest (or none:
// the ID belongs to a quarantined campaign) is a genuine conflict and
// returns the *APIError.
func (c *Client) Submit(ctx context.Context, sub Submission) error {
	body, err := json.Marshal(sub)
	if err != nil {
		return fmt.Errorf("sched client: encode submission: %w", err)
	}
	digest := sub.Spec.ScheduleDigest()
	return c.retry(ctx, "submit "+sub.Spec.ID, func() (bool, error) {
		err := c.do(ctx, http.MethodPost, "/api/submit", body, nil)
		var apiErr *APIError
		if errors.As(err, &apiErr) && apiErr.Code == codeDuplicate && apiErr.Digest == digest {
			return false, nil // the lost-response case: already admitted
		}
		return c.classify(err)
	})
}

// Status fetches the scheduler-wide status snapshot.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var st Status
	err := c.retry(ctx, "status", func() (bool, error) {
		st = Status{}
		return c.classify(c.do(ctx, http.MethodGet, "/api/status", nil, &st))
	})
	return st, err
}

// Campaign fetches one campaign's status. Unknown IDs return an
// *APIError with StatusCode 404.
func (c *Client) Campaign(ctx context.Context, id string) (CampaignStatus, error) {
	var cs CampaignStatus
	err := c.retry(ctx, "campaign "+id, func() (bool, error) {
		cs = CampaignStatus{}
		return c.classify(c.do(ctx, http.MethodGet, "/api/campaigns/"+id, nil, &cs))
	})
	return cs, err
}

// Drain asks the server to stop admitting and finish in-flight work.
// The server acknowledges with 202 and drains in the background; poll
// Status (or use AwaitQuiescent) for completion. Drain is idempotent —
// retries after a lost 202 re-request the same drain.
func (c *Client) Drain(ctx context.Context) error {
	return c.retry(ctx, "drain", func() (bool, error) {
		return c.classify(c.do(ctx, http.MethodPost, "/api/drain", nil, nil))
	})
}

// AwaitQuiescent polls Status every interval (0 means 50ms) until the
// scheduler reports draining with zero active campaigns, the scheduler
// dies, or ctx expires.
func (c *Client) AwaitQuiescent(ctx context.Context, interval time.Duration) (Status, error) {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx)
		if err == nil && st.Drain && st.Active == 0 {
			return st, nil
		}
		if err != nil && errors.Is(err, ErrSchedulerDown) {
			return st, err
		}
		if serr := c.sleep(ctx, interval); serr != nil {
			return st, serr
		}
	}
}

// classify sorts one attempt's outcome for the retry loop: done, retry,
// or give up. Network-layer errors (no HTTP status at all) are always
// worth retrying — for non-idempotent submits that is safe precisely
// because of the digest handshake in Submit.
func (c *Client) classify(err error) (retry bool, _ error) {
	if err == nil {
		return false, nil
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.retryable(), err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, err
	}
	return true, err // transport-level: dropped conn, reset, lost response
}

// retry drives attempts of op until success, a non-retryable error, the
// attempt budget, or ctx. op reports (retryable, error).
func (c *Client) retry(ctx context.Context, what string, op func() (bool, error)) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return fmt.Errorf("%s: %w (last attempt: %v)", what, err, lastErr)
			}
			return fmt.Errorf("%s: %w", what, err)
		}
		retryable, err := op()
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt+1 >= c.maxAttempts() {
			return fmt.Errorf("sched client: %s failed after %d attempt(s): %w", what, attempt+1, err)
		}
		var retryAfter time.Duration
		var apiErr *APIError
		if errors.As(err, &apiErr) {
			retryAfter = apiErr.RetryAfter
		}
		d := c.backoff(attempt, retryAfter)
		c.log().Info("retrying", "op", what, "attempt", attempt+1, "delay", d, "error", err)
		if serr := c.sleep(ctx, d); serr != nil {
			return fmt.Errorf("%s: %w (last attempt: %v)", what, serr, lastErr)
		}
	}
}
