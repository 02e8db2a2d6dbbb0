// Command ibserve runs the multi-tenant campaign scheduler as a JSON
// service: tenants POST campaign submissions, the scheduler multiplexes
// them over one simulated chamber (batching compatible campaigns into
// shared stress passes), and every admission decision and slice of
// progress is journaled so a killed server resumes exactly where it
// died — point it at the same -dir and restart.
//
// Per-campaign encryption keys are derived on demand from the master
// passphrase, the tenant, and the campaign ID; nothing secret is ever
// persisted. Decoding a finished campaign therefore needs the same
// passphrase and the campaign directory (ibdecode, or
// campaign.DecodeResult).
//
// Usage:
//
//	ibserve -dir /var/lib/ibserve -passphrase "..." -addr :8080
//	ibserve -dir /var/lib/ibserve -passphrase "..." -slots 32 -quota-campaigns 4
//
// Routes:
//
//	POST /api/submit          {tenant, spec, spares} → 202 {campaign}
//	GET  /api/status          scheduler-wide counters and latency percentiles
//	GET  /api/campaigns/{id}  one campaign's state
//	POST /api/drain           202; drain continues server-side, poll /api/status
//	GET  /healthz             liveness (503 once the scheduler loop has died)
//	GET  /readyz              readiness (503 while draining/stopping/dead)
//
// Lifecycle: SIGINT or SIGTERM triggers a graceful stop — the listener
// stops accepting, in-flight requests get -shutdown-timeout to finish,
// the scheduler halts at the next pass boundary, and the journal is
// closed cleanly so the next start resumes bit-identically.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"invisiblebits/internal/sched"
	"invisiblebits/internal/stegocrypt"
)

func main() {
	var (
		dir        = flag.String("dir", "ibserve-data", "state directory (journal + campaign artifacts)")
		addr       = flag.String("addr", ":8080", "listen address")
		passphrase = flag.String("passphrase", "", "master passphrase for per-campaign key derivation (required)")
		slots      = flag.Int("slots", sched.DefaultChamberSlots, "chamber carrier slots per pass")
		setup      = flag.Float64("setup-hours", sched.DefaultSetupHours, "chamber re-targeting cost when the operating point changes")
		queued     = flag.Int("queue", sched.DefaultMaxQueued, "max campaigns in flight before submissions bounce with 429")
		campaigns  = flag.Int("quota-campaigns", 0, "per-tenant active-campaign quota (0 = unlimited)")
		devices    = flag.Int("quota-devices", 0, "per-tenant device quota (0 = unlimited)")
		hours      = flag.Float64("quota-hours", 0, "per-tenant chamber-hour quota (0 = unlimited)")
		batch      = flag.Bool("batch", true, "coalesce compatible campaigns into shared chamber passes")

		readTimeout     = flag.Duration("read-timeout", 10*time.Second, "max time to read a request (headers + body)")
		writeTimeout    = flag.Duration("write-timeout", 30*time.Second, "max time to write a response")
		idleTimeout     = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
		shutdownTimeout = flag.Duration("shutdown-timeout", 30*time.Second, "grace period for in-flight requests and the scheduler on SIGINT/SIGTERM")
		maxBody         = flag.Int64("max-body", sched.DefaultMaxBodyBytes, "request body cap in bytes (oversize submissions get 413)")
		rate            = flag.Float64("rate", 0, "per-tenant sustained submissions/sec (0 = unlimited)")
		burst           = flag.Int("burst", 0, "per-tenant submission burst size (0 = 1 when -rate is set)")
	)
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *passphrase == "" {
		fatal(errors.New("ibserve: -passphrase is required (keys are derived, never stored)"))
	}
	master := *passphrase
	cfg := sched.Config{
		ChamberSlots: *slots,
		SetupHours:   *setup,
		MaxQueued:    *queued,
		DefaultQuota: sched.Quota{
			MaxCampaigns:    *campaigns,
			MaxDevices:      *devices,
			MaxChamberHours: *hours,
		},
		DisableBatching: !*batch,
		KeyFor: func(tenant, id string) *stegocrypt.Key {
			k := stegocrypt.KeyFromPassphrase(master + "|" + tenant + "|" + id)
			return &k
		},
	}

	s, resumed, err := openScheduler(*dir, cfg)
	if err != nil {
		fatal(err)
	}
	verb := "created"
	if resumed {
		verb = "resumed"
	}
	st := s.Status()
	fmt.Printf("ibserve: %s scheduler in %s (%d active, %d done, %d failed, %.1f chamber hours)\n",
		verb, *dir, st.Active, st.Done, st.Failed, st.ChamberHours)
	if sal := s.Salvage(); sal != nil {
		if sal.Degraded() {
			fmt.Printf("ibserve: DEGRADED resume: salvaged %d journal records (%d records / %d bytes dropped: %s), %d campaigns quarantined, %d checkpoints struck, %d temp files swept\n",
				sal.JournalRecords, sal.DroppedRecords, sal.DroppedBytes, sal.Reason,
				len(sal.Quarantined), len(sal.BadCheckpoints), len(sal.TempFilesSwept))
			for _, id := range sal.Quarantined {
				fmt.Printf("ibserve: quarantined campaign %s (state unrecoverable; see /api/campaigns/%s)\n", id, id)
			}
		} else {
			fmt.Printf("ibserve: clean resume: %d journal records replayed\n", sal.JournalRecords)
		}
	}

	handler := sched.NewServerWith(s, sched.ServerConfig{
		Logger:       logger,
		MaxBodyBytes: *maxBody,
		RateLimit:    sched.RateLimit{PerSecond: *rate, Burst: *burst},
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadTimeout:       *readTimeout,
		ReadHeaderTimeout: *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}

	// The scheduler loop dying on a journal failure must take the
	// process down loudly — a serving-but-dead scheduler would 500
	// forever (and /healthz flips to 503 first, so an orchestrator can
	// beat us to it). A clean drain or stop, by contrast, keeps the
	// process up: status queries still need serving, and new
	// submissions bounce with 503.
	schedDead := make(chan error, 1)
	go func() {
		<-s.Done()
		if err := s.Err(); err != nil {
			schedDead <- err
			return
		}
		fmt.Println("ibserve: scheduler quiescent; serving status only")
	}()

	serveErr := make(chan error, 1)
	go func() {
		fmt.Printf("ibserve: listening on %s\n", *addr)
		serveErr <- httpSrv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	select {
	case <-ctx.Done():
		stop() // restore default signal behavior: a second ^C kills us
		fmt.Println("ibserve: signal received; shutting down gracefully")
	case err := <-schedDead:
		fatal(fmt.Errorf("scheduler died: %w", err))
	case err := <-serveErr:
		fatal(err)
	}

	// Two-phase graceful stop: first quiesce the HTTP surface (stop
	// accepting, let in-flight requests finish), then halt the
	// scheduler at its next pass boundary so the journal closes with a
	// complete pass record and the next start resumes bit-identically.
	deadline, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(deadline); err != nil {
		logger.Warn("http shutdown incomplete; closing connections", "error", err)
		httpSrv.Close() //nolint:errcheck // best effort after failed graceful shutdown
	}
	if err := s.Stop(deadline); err != nil {
		fatal(fmt.Errorf("scheduler stop: %w", err))
	}
	fmt.Println("ibserve: stopped cleanly; restart with the same -dir to resume")
}

// openScheduler resumes an existing state directory or creates a fresh
// one: the presence of a journal decides, so a restart after a crash
// (or a graceful stop) picks up every in-flight campaign from its last
// durable checkpoint.
func openScheduler(dir string, cfg sched.Config) (*sched.Scheduler, bool, error) {
	if _, err := os.Stat(filepath.Join(dir, sched.JournalFile)); err == nil {
		s, rerr := sched.Resume(dir, cfg)
		return s, true, rerr
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, false, err
	}
	s, err := sched.New(dir, cfg)
	return s, false, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ibserve:", err)
	os.Exit(1)
}
