package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one `ceer serve` process listening on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string // "http://127.0.0.1:port"

	mu      sync.Mutex
	log     bytes.Buffer // stdout and stderr, for failure reports
	exited  chan struct{}
	err     error         // Wait's result, valid once exited is closed
	scanned chan struct{} // closed when the output reader has finished
}

// boot execs `ceer serve -addr 127.0.0.1:0 <args>` and returns once
// /healthz answers healthy, with the steal-corrected seconds from exec
// to that answer.
func boot(bin string, args ...string) (*daemon, float64, error) {
	d := &daemon{exited: make(chan struct{}), scanned: make(chan struct{})}
	d.cmd = exec.Command(bin, append([]string{"serve", "-addr", "127.0.0.1:0"}, args...)...)
	// If the benchmark itself is killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw := io.Pipe()
	d.cmd.Stdout = pw
	d.cmd.Stderr = pw
	addr := make(chan string, 1)
	t0, clock := time.Now(), startStealClock()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ceer serve: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		_ = pw.Close() // unblocks the reader below; a pipe close cannot fail
		close(d.exited)
	}()
	go d.scan(pr, addr)

	var a string
	select {
	case a = <-addr:
	case <-d.exited:
		return nil, 0, fmt.Errorf("ceer serve exited during start-up: %v\n%s", d.err, d.output())
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("ceer serve did not listen within 120s\n%s", d.output())
	}
	d.base = "http://" + a
	hc := &http.Client{Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	for {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("ceer serve exited before reporting healthy: %v\n%s", d.err, d.output())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			_ = resp.Body.Close() // fully read
			if rerr == nil && resp.StatusCode == http.StatusOK && bytes.Contains(body, []byte(`"status":"healthy"`)) {
				up, _ := clock.elapsed()
				return d, up.Seconds(), nil
			}
		}
		if time.Since(t0) > 120*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("ceer serve never reported healthy\n%s", d.output())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// scan copies the daemon's output into its log and reports the listen
// address from the "listening on" line.
func (d *daemon) scan(r io.Reader, addr chan<- string) {
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.log.WriteString(line + "\n")
		d.mu.Unlock()
		if _, rest, ok := strings.Cut(line, "listening on "); ok && !sent {
			addr <- strings.Fields(rest)[0]
			sent = true
		}
	}
	_, _ = io.Copy(io.Discard, r) // keep draining so the daemon never blocks on output
	close(d.scanned)
}

func (d *daemon) output() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop drains the daemon with SIGTERM and waits for it to exit. A daemon
// that does not exit within a minute is killed, and that is an error.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		<-d.exited
		return fmt.Errorf("signalling ceer serve: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("ceer serve did not drain within 60s\n%s", d.output())
	}
	<-d.scanned
	if d.err != nil {
		return fmt.Errorf("ceer serve exited with %v\n%s", d.err, d.output())
	}
	return nil
}

// kill ends the daemon without a drain and waits for it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // it may already be gone; Wait below settles it
	<-d.exited
	<-d.scanned
}

// setup is what one run's daemon boots measured: the steal-corrected
// wall seconds from exec to the first healthy /healthz of every boot,
// and the CPU seconds of every boot that was stopped right away (start,
// load, compile, warmup, listen, drain and exit).
type setup struct{ wall, cpu []float64 }

// bootSeries boots the daemon n times, stopping all but the last, and
// returns the last one. args is rebuilt per boot so each boot can get
// fresh paths.
func bootSeries(bin string, n int, args func(i int) []string) (*daemon, setup, error) {
	var st setup
	for i := 0; i < n; i++ {
		d, s, err := boot(bin, args(i)...)
		if err != nil {
			return nil, st, err
		}
		st.wall = append(st.wall, s)
		if i == n-1 {
			return d, st, nil
		}
		if err := d.stop(); err != nil {
			return nil, st, err
		}
		st.cpu = append(st.cpu, exitedCPU(d.cmd))
	}
	return nil, st, fmt.Errorf("bootSeries: n must be positive")
}

// report sets the gated setup_s (median seconds from exec to healthy)
// and prints both distributions.
func (st setup) report(res *result) {
	wall := summarize(st.wall)
	res.setE2E("setup_s", "s", wall.P50)
	res.timing("setup_s (exec to healthy)", "s", wall)
	res.timing("boot_cpu_s (daemon CPU per boot)", "s", summarize(st.cpu))
}
