package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ceer"
	"ceer/internal/devices/a10g"
	"ceer/internal/serve"
)

// cmdServe runs the prediction daemon (internal/serve): the trained
// system's predict/recommend/explain paths as JSON endpoints over the
// compiled serving tables, with admission control, structured metrics,
// and SIGHUP / POST /admin/reload model hot-swap.
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	modelsPath := fs.String("models", "", "trained models file; enables hot reload (SIGHUP or POST /admin/reload) unless calibration is on")
	addr := fs.String("addr", "127.0.0.1:7077", "listen address (port 0 picks an ephemeral port)")
	batch := fs.Int64("batch", 32, "per-GPU batch size the serving tables are compiled at")
	maxK := fs.Int("maxk", 4, "max GPUs per family in candidate sweeps")
	rate := fs.Float64("rate", 0, "admitted requests/second over /v1/* (token bucket; 0 = unlimited)")
	burst := fs.Int("burst", 0, "token-bucket burst depth in requests (0 = ~1s of rate)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent /v1/* requests; excess sheds 429 (0 = unlimited)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request compute budget; over-budget answers 504 (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 15*time.Second, "max time to wait for in-flight requests on shutdown; stragglers are logged and the exit is nonzero")
	warmup := fs.Bool("warmup", false, "pre-compile tables, pre-fault the arena, and warm every hot endpoint before binding the listener")
	observe := fs.Bool("observe", false, "enable in-daemon calibration via POST /v1/observe")
	journalPath := fs.String("observe-journal", "", "write-ahead observation journal, replayed on startup (implies -observe)")
	fsyncPol := fs.String("fsync", "always", "journal durability: always (fsync per journal write) or never")
	calibOut := fs.String("calib-out", "", "write the calibrated predictor here on clean drain (implies -observe)")
	obsTail := fs.String("obs-tail", "", "observation log to follow, feeding appended lines into calibration (implies -observe)")
	reloadTol := fs.Float64("reload-tolerance", 0, "max relative golden-probe divergence an accepted model swap may show (0 = 0.5)")
	panicThreshold := fs.Int("panic-threshold", 0, "recovered handler panics within -panic-window that degrade the daemon (0 = 3)")
	panicWindow := fs.Duration("panic-window", 0, "panic breaker sliding window (0 = 10s)")
	panicRecovery := fs.Duration("panic-recovery", 0, "panic-free time before a degraded daemon recovers (0 = 30s)")
	seed := fs.Uint64("seed", 1, "training seed when no -models file is given")
	workers := fs.Int("workers", 0, "parallel measurement workers when training in memory; 0 = GOMAXPROCS")
	extra := fs.Bool("extra-devices", false, "also register the built-in non-paper devices")
	res := addResilienceFlags(fs)
	prof := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The profiles cover the daemon's whole life: they stop when
	// cmdServe returns, after the drain.
	stop, err := prof.start()
	if err != nil {
		return err
	}
	defer deferStop(stop, &err)
	if *extra {
		a10g.Register()
	}
	ctx, cancel := res.context()
	defer cancel()
	sys, err := loadOrTrain(ctx, *modelsPath, res, *seed, *workers)
	if err != nil {
		return err
	}
	opts := serve.Options{
		Batch:           *batch,
		MaxK:            *maxK,
		ModelPath:       *modelsPath,
		RatePerSec:      *rate,
		Burst:           *burst,
		MaxInFlight:     *maxInFlight,
		RequestTimeout:  *reqTimeout,
		Warmup:          *warmup,
		ReloadTolerance: *reloadTol,
		PanicThreshold:  *panicThreshold,
		PanicWindow:     *panicWindow,
		RecoveryWindow:  *panicRecovery,
	}
	if *observe || *journalPath != "" || *calibOut != "" || *obsTail != "" {
		opts.Calibration = &serve.CalibrationOptions{
			JournalPath: *journalPath,
			Fsync:       *fsyncPol,
		}
	}
	srv, err := serve.New(sys, opts)
	if err != nil {
		return err
	}
	if *journalPath != "" {
		obs, torn := srv.JournalReplayed()
		if torn > 0 {
			fmt.Printf("ceer serve: journal %s: replayed %d observations (torn final line %d trimmed)\n", *journalPath, obs, torn)
		} else {
			fmt.Printf("ceer serve: journal %s: replayed %d observations\n", *journalPath, obs)
		}
	}

	// Bind after warmup so the first accepted request is already warm.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("ceer serve: listening on %s (batch %d, maxk %d)\n", ln.Addr(), *batch, *maxK)

	if *obsTail != "" {
		go func() {
			if terr := srv.TailObsLog(ctx, *obsTail, 0); terr != nil {
				fmt.Fprintln(os.Stderr, "ceer serve: obs tail:", terr)
			}
		}()
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	shutdownErr := make(chan error, 1)
	go func() {
		for sig := range sigs {
			if sig == syscall.SIGHUP {
				gen, rerr := srv.Reload()
				if rerr != nil {
					fmt.Fprintln(os.Stderr, "ceer serve: reload rejected, keeping current generation:", rerr)
					continue
				}
				fmt.Printf("ceer serve: reloaded %s (generation %d)\n", *modelsPath, gen)
				continue
			}
			fmt.Printf("ceer serve: %s received, draining (timeout %s)...\n", sig, *drainTimeout)
			shCtx, shCancel := context.WithTimeout(context.Background(), *drainTimeout)
			shutdownErr <- srv.Shutdown(shCtx)
			shCancel()
			return
		}
	}()

	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Serve only returns ErrServerClosed after Shutdown (or its forced
	// Close) ran, so the channel is guaranteed a value.
	if serr := <-shutdownErr; serr != nil {
		var de *serve.DrainError
		if errors.As(serr, &de) {
			return fmt.Errorf("ceer serve: drain timeout: %d requests still in flight after %s", de.InFlight, *drainTimeout)
		}
		return fmt.Errorf("ceer serve: shutdown: %w", serr)
	}
	if *calibOut != "" {
		if werr := writeCalibrated(srv, *calibOut); werr != nil {
			return werr
		}
		fmt.Printf("ceer serve: calibrated predictor written to %s\n", *calibOut)
	}
	fmt.Println("ceer serve: drained, bye")
	return nil
}

// writeCalibrated persists the daemon's calibrated predictor on a clean
// drain — the bytes the chaos suite compares across a kill -9.
func writeCalibrated(srv *serve.Server, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := srv.SaveCalibrated(f); err != nil {
		_ = f.Close() // save already failed; surface that error
		return err
	}
	return f.Close()
}

// servePredictJSON is `ceer predict -json`: it renders the prediction
// through the daemon's own handler and encoder (serve.Server.DoLocal),
// so the CLI's JSON output is byte-identical to the daemon's
// /v1/predict response for the same query — the equivalence the serve
// smoke test in scripts/serve-smoke.sh pins with cmp.
func servePredictJSON(sys *ceer.System, model, configStr string, samples, batch int64, market bool) error {
	srv, err := serve.New(sys, serve.Options{Batch: batch})
	if err != nil {
		return err
	}
	q := fmt.Sprintf("model=%s&batch=%d&samples=%d", model, batch, samples)
	if market {
		q += "&pricing=market"
	}
	if configStr != "" {
		q += "&config=" + configStr
	}
	status, body := srv.DoLocal(http.MethodGet, "/v1/predict", q)
	if status != http.StatusOK {
		return fmt.Errorf("predict: %s", string(body))
	}
	_, err = os.Stdout.Write(body)
	return err
}
