package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceer"
	"ceer/internal/trace"
)

// obsLog materializes the shared test system's training observation
// stream once: realistic calibration input (every line matches a
// trained cell).
var (
	obsOnce  sync.Once
	obsLines [][]byte
)

func testObsLines(t *testing.T, n int) [][]byte {
	t.Helper()
	obsOnce.Do(func() {
		var buf bytes.Buffer
		if err := testSystem(t).WriteObsLog(&buf); err != nil {
			t.Fatalf("WriteObsLog: %v", err)
		}
		for _, ln := range bytes.Split(buf.Bytes(), []byte("\n")) {
			if len(bytes.TrimSpace(ln)) > 0 {
				obsLines = append(obsLines, ln)
			}
		}
	})
	if n > len(obsLines) {
		n = len(obsLines)
	}
	return obsLines[:n]
}

func obsBody(lines [][]byte) []byte {
	return append(bytes.Join(lines, []byte("\n")), '\n')
}

// scaleObs rewrites observation lines with seconds multiplied by
// factor (the "this hardware got slower" drift input).
func scaleObs(t *testing.T, lines [][]byte, factor float64) [][]byte {
	t.Helper()
	out := make([][]byte, len(lines))
	for i, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal(ln, &m); err != nil {
			t.Fatalf("obs line %d: %v", i, err)
		}
		m["seconds"] = m["seconds"].(float64) * factor
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

func postObserve(t *testing.T, s *Server, body []byte, wantStatus int) map[string]any {
	t.Helper()
	status, resp := s.DoLocalBody(http.MethodPost, "/v1/observe", "", body)
	if status != wantStatus {
		t.Fatalf("POST /v1/observe: status %d (want %d): %s", status, wantStatus, resp)
	}
	var m map[string]any
	if err := json.Unmarshal(resp, &m); err != nil {
		t.Fatalf("observe response: %v\n%s", err, resp)
	}
	return m
}

// TestObserveJournalCrashReplayIdentity is the tentpole's crash-safety
// contract: observations applied through POST /v1/observe with a
// write-ahead journal, then the process "dies" (the server is simply
// abandoned — no clean close, like kill -9 after the last fsync), and
// a fresh daemon over the same journal must reconstruct byte-identical
// calibrated predictor state.
func TestObserveJournalCrashReplayIdentity(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "obs.jsonl")
	lines := testObsLines(t, 200)

	s1 := newTestServer(t, Options{Calibration: &CalibrationOptions{JournalPath: journal}})
	resp := postObserve(t, s1, obsBody(lines), http.StatusOK)
	if got := int(resp["accepted"].(float64)); got != len(lines) {
		t.Fatalf("accepted %d observations, want %d", got, len(lines))
	}
	if resp["journaled"] != true {
		t.Fatalf("journaled = %v, want true", resp["journaled"])
	}
	var before bytes.Buffer
	if err := s1.SaveCalibrated(&before); err != nil {
		t.Fatal(err)
	}
	// No Shutdown, no journal close: the crash.

	s2 := newTestServer(t, Options{Calibration: &CalibrationOptions{JournalPath: journal}})
	replayed, torn := s2.JournalReplayed()
	if replayed != len(lines) || torn != 0 {
		t.Fatalf("JournalReplayed = (%d, %d), want (%d, 0)", replayed, torn, len(lines))
	}
	var after bytes.Buffer
	if err := s2.SaveCalibrated(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatalf("replayed predictor state differs from pre-crash state (%d vs %d bytes)",
			before.Len(), after.Len())
	}
}

// TestJournalTornTailTrimmedOnBoot: a kill -9 mid-append leaves a torn
// final line. Boot must replay the intact prefix, report the torn
// line, and trim it — so observations appended by the new process do
// not concatenate onto the fragment and poison the next replay.
func TestJournalTornTailTrimmedOnBoot(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "obs.jsonl")
	lines := testObsLines(t, 4)
	torn := append(obsBody(lines[:3]), lines[3][:len(lines[3])/2]...) // no trailing newline
	if err := os.WriteFile(journal, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s := newTestServer(t, Options{Calibration: &CalibrationOptions{JournalPath: journal}})
	replayed, tornLine := s.JournalReplayed()
	if replayed != 3 || tornLine != 4 {
		t.Fatalf("JournalReplayed = (%d, %d), want (3, 4)", replayed, tornLine)
	}

	// Append one more observation through the live path, then prove the
	// journal is fully parseable with no torn tail.
	postObserve(t, s, obsBody(lines[3:4]), http.StatusOK)
	f, err := os.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errdrop read-side close; there are no buffered writes to lose
	defer f.Close()
	or := trace.NewObsReader(f)
	n := 0
	for {
		_, _, rerr := or.Read()
		if rerr != nil {
			break
		}
		n++
	}
	if n != 4 || or.Torn() != 0 {
		t.Fatalf("journal after trim+append: %d records, torn %d; want 4 records, torn 0", n, or.Torn())
	}
}

// TestJournalUnterminatedRecordKeepsNextAppend: a crash after a
// record's bytes but before its newline leaves a whole, unterminated
// final record. Boot must replay it and restore the newline, so the
// next acknowledged observation lands on a line of its own and the
// reboot after a crash replays every record to the same state.
func TestJournalUnterminatedRecordKeepsNextAppend(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "obs.jsonl")
	lines := testObsLines(t, 4)
	if err := os.WriteFile(journal, bytes.Join(lines[:3], []byte("\n")), 0o644); err != nil {
		t.Fatal(err)
	}

	s1 := newTestServer(t, Options{Calibration: &CalibrationOptions{JournalPath: journal}})
	if replayed, torn := s1.JournalReplayed(); replayed != 3 || torn != 0 {
		t.Fatalf("JournalReplayed = (%d, %d), want (3, 0)", replayed, torn)
	}
	postObserve(t, s1, obsBody(lines[3:4]), http.StatusOK)
	var before bytes.Buffer
	if err := s1.SaveCalibrated(&before); err != nil {
		t.Fatal(err)
	}
	// No close: the crash.

	s2 := newTestServer(t, Options{Calibration: &CalibrationOptions{JournalPath: journal}})
	if replayed, torn := s2.JournalReplayed(); replayed != 4 || torn != 0 {
		t.Fatalf("reboot JournalReplayed = (%d, %d), want (4, 0)", replayed, torn)
	}
	var after bytes.Buffer
	if err := s2.SaveCalibrated(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("replayed predictor state differs from the pre-crash state")
	}
}

// driftCanonical rewrites observation lines with seconds multiplied by
// factor, in the canonical form json.Encoder writes for trace.Obs.
func driftCanonical(t *testing.T, lines [][]byte, factor float64) [][]byte {
	t.Helper()
	out := make([][]byte, len(lines))
	for i, ln := range lines {
		o, err := trace.DecodeObs(ln)
		if err != nil {
			t.Fatalf("obs line %d: %v", i, err)
		}
		o.Seconds *= factor
		if out[i], err = json.Marshal(o); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// nonCanonical re-encodes an observation line with sorted keys, a
// space after every colon and comma, and every string character
// \u-escaped: the same observation in a form the canonical scan hands
// to encoding/json.
func nonCanonical(t *testing.T, line []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: ", k)
		switch v := m[k].(type) {
		case string:
			b.WriteByte('"')
			for _, c := range v {
				fmt.Fprintf(&b, `\u%04x`, c)
			}
			b.WriteByte('"')
		case []any:
			b.WriteByte('[')
			for j, x := range v {
				if j > 0 {
					b.WriteString(", ")
				}
				num, err := json.Marshal(x)
				if err != nil {
					t.Fatal(err)
				}
				b.Write(num)
			}
			b.WriteByte(']')
		default:
			num, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(num)
		}
	}
	b.WriteByte('}')
	return b.Bytes()
}

// saveCalibrated returns s's calibrated predictor bytes.
func saveCalibrated(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveCalibrated(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestNonCanonicalBodiesCalibrateAlike: the journal holds the client's
// own lines, so the same drifted observations POSTed canonical to one
// daemon and re-encoded (sorted keys, interior spaces, \u escapes) to
// another calibrate to the same predictor; the second journal holds
// the posted lines verbatim and replays to that predictor on reboot. A
// body whose line k is bad journals exactly lines 1..k-1, several
// journal blocks' worth, and applies them.
func TestNonCanonicalBodiesCalibrateAlike(t *testing.T) {
	canon := driftCanonical(t, testObsLines(t, 2000), 1.3)
	other := make([][]byte, len(canon))
	for i := range canon {
		other[i] = nonCanonical(t, canon[i])
	}
	dir := t.TempDir()
	calib := func(name string) Options {
		return Options{Calibration: &CalibrationOptions{JournalPath: filepath.Join(dir, name)}}
	}
	a, b := newTestServer(t, calib("a.jsonl")), newTestServer(t, calib("b.jsonl"))
	refits := 0
	for start := 0; start < len(canon); start += 500 {
		end := min(start+500, len(canon))
		refits += int(postObserve(t, a, obsBody(canon[start:end]), http.StatusOK)["refits"].(float64))
		postObserve(t, b, obsBody(other[start:end]), http.StatusOK)
	}
	if refits == 0 {
		t.Fatal("the drifted stream refit nothing")
	}
	saved := saveCalibrated(t, a)
	if !bytes.Equal(saveCalibrated(t, b), saved) {
		t.Fatal("re-encoded bodies calibrated to a different predictor than canonical ones")
	}
	journal, err := os.ReadFile(filepath.Join(dir, "b.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal, obsBody(other)) {
		t.Fatal("the journal does not hold the posted lines verbatim")
	}
	if !bytes.Equal(saveCalibrated(t, newTestServer(t, calib("b.jsonl"))), saved) {
		t.Fatal("a reboot over the re-encoded journal replays to a different predictor")
	}

	const k = 700
	if n := len(obsBody(other[:k-1])); n <= journalBlock {
		t.Fatalf("the %d lines before the bad one hold %d bytes, one block; the case needs several", k-1, n)
	}
	bad := append(append(append([][]byte{}, other[:k-1]...), []byte(`{"cnn": broken`)), other[k:]...)
	c := newTestServer(t, calib("c.jsonl"))
	status, resp := c.DoLocalBody(http.MethodPost, "/v1/observe", "", obsBody(bad))
	if status != http.StatusBadRequest || !strings.Contains(string(resp), fmt.Sprintf("line %d", k)) {
		t.Fatalf("bad line %d: status %d, body %s (want 400 naming it)", k, status, resp)
	}
	if journal, err = os.ReadFile(filepath.Join(dir, "c.jsonl")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(journal, obsBody(other[:k-1])) {
		t.Fatalf("bad line %d: the journal holds %d lines, want exactly the %d before it", k, bytes.Count(journal, []byte("\n")), k-1)
	}
	if got := c.met.srv.calibObs.Load(); got != k-1 {
		t.Fatalf("bad line %d: %d observations applied, want %d", k, got, k-1)
	}
	if !bytes.Equal(saveCalibrated(t, newTestServer(t, calib("c.jsonl"))), saveCalibrated(t, c)) {
		t.Fatal("the journaled prefix replays to a different predictor than the one it applied")
	}
}

// TestTailAfterDrainIsRefused: a tail poll that runs after the drain
// closed the journal must not apply what it can no longer journal.
// The drain runs with nothing in flight, then one poll of drifted
// lines arrives: every line counts as shed, and the calibrated
// predictor (what -calib-out saves) equals a fresh daemon's replay of
// the journal.
func TestTailAfterDrainIsRefused(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "obs.jsonl")
	opts := Options{Calibration: &CalibrationOptions{JournalPath: journal}}
	lines := scaleObs(t, testObsLines(t, 3500), 1.6)
	s := newTestServer(t, opts)
	postObserve(t, s, obsBody(lines[:500]), http.StatusOK)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.tailApply(obsBody(lines[500:]))
	if obs, shed := s.met.srv.calibObs.Load(), s.met.srv.calibShed.Load(); obs != 500 || shed != 3000 {
		t.Fatalf("after the drain: calib_obs %d, calib_shed %d; want 500 and 3000", obs, shed)
	}
	if !bytes.Equal(saveCalibrated(t, s), saveCalibrated(t, newTestServer(t, opts))) {
		t.Fatal("the calibrated predictor differs from the journal's replay")
	}
}

// TestObserveLineCap: the 4 MiB line cap is the only bound on a POST
// /v1/observe line, so a longer line is a 400 that names it, even when
// it holds a valid observation.
func TestObserveLineCap(t *testing.T) {
	s := newTestServer(t, Options{Calibration: &CalibrationOptions{}})
	lines := testObsLines(t, 1)
	long := bytes.Replace(lines[0], []byte(`"cnn":"`), []byte(`"cnn":"`+strings.Repeat("x", 4<<20)), 1)
	status, resp := s.DoLocalBody(http.MethodPost, "/v1/observe", "", obsBody([][]byte{lines[0], long}))
	if status != http.StatusBadRequest || !strings.Contains(string(resp), "line 2") {
		t.Fatalf("over-cap line: status %d, body %.200s (want 400 naming line 2)", status, resp)
	}
}

// TestObserveRejectsBadBodies: HTTP bodies are not crash artifacts — a
// truncated or corrupt body is the client's bug and must be 400, even
// though the same bytes in a journal file would be tolerated as a torn
// tail.
func TestObserveRejectsBadBodies(t *testing.T) {
	s := newTestServer(t, Options{Calibration: &CalibrationOptions{}})
	lines := testObsLines(t, 2)

	truncated := append(obsBody(lines[:1]), lines[1][:len(lines[1])/2]...)
	status, resp := s.DoLocalBody(http.MethodPost, "/v1/observe", "", truncated)
	if status != http.StatusBadRequest || !strings.Contains(string(resp), "truncated") {
		t.Fatalf("truncated body: status %d, body %s (want 400 mentioning truncation)", status, resp)
	}

	garbage := append(obsBody(lines[:1]), []byte("{broken\n")...)
	garbage = append(garbage, obsBody(lines[1:2])...)
	if status, resp = s.DoLocalBody(http.MethodPost, "/v1/observe", "", garbage); status != http.StatusBadRequest {
		t.Fatalf("corrupt body: status %d, body %s (want 400)", status, resp)
	}

	if status, _ = s.DoLocalBody(http.MethodGet, "/v1/observe", "", nil); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/observe: status %d, want 405", status)
	}

	noCal := newTestServer(t, Options{})
	if status, _ = noCal.DoLocalBody(http.MethodPost, "/v1/observe", "", obsBody(lines)); status != http.StatusNotFound {
		t.Fatalf("observe without calibration: status %d, want 404", status)
	}
}

// writePredictorJSON saves the shared system's predictor, applies
// mutate to the decoded document, and writes it to path.
func writePredictorJSON(t *testing.T, path string, mutate func(map[string]any)) {
	t.Helper()
	var buf bytes.Buffer
	if err := testSystem(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if mutate != nil {
		mutate(doc)
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestReloadValidationCauses drives every rejection cause through
// Reload: each must keep the old generation serving, bump the
// reload_rejected counter, and carry its typed cause; the final good
// file must then be accepted.
func TestReloadValidationCauses(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	s := newTestServer(t, Options{ModelPath: path})
	s.reloadRetry.Sleep = func(time.Duration) {} // no real backoff in tests

	cases := []struct {
		name  string
		write func()
		cause string
	}{
		{"garbage file", func() {
			if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
				t.Fatal(err)
			}
		}, ReloadCauseLoad},
		{"missing file", func() {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, ReloadCauseLoad},
		{"unsupported version", func() {
			writePredictorJSON(t, path, func(doc map[string]any) { doc["version"] = float64(99) })
		}, ReloadCauseVersion},
		{"unknown device", func() {
			writePredictorJSON(t, path, func(doc map[string]any) {
				doc["op_models"].([]any)[0].(map[string]any)["gpu"] = "not-a-device"
			})
		}, ReloadCauseRegistry},
		{"probe divergence", func() {
			writePredictorJSON(t, path, func(doc map[string]any) {
				for _, om := range doc["op_models"].([]any) {
					model := om.(map[string]any)["model"].(map[string]any)
					coef := model["coef"].([]any)
					for i := range coef {
						coef[i] = coef[i].(float64) * 10
					}
				}
			})
		}, ReloadCauseProbe},
	}
	gen0 := s.Generation()
	for i, c := range cases {
		c.write()
		_, err := s.Reload()
		var re *ReloadError
		if !errors.As(err, &re) {
			t.Fatalf("%s: Reload error = %v, want *ReloadError", c.name, err)
		}
		if re.Cause != c.cause {
			t.Errorf("%s: cause %q, want %q (%v)", c.name, re.Cause, c.cause, re.Err)
		}
		if got := s.Generation(); got != gen0 {
			t.Fatalf("%s: generation moved to %d on a rejected reload", c.name, got)
		}
		if got := s.met.srv.reloadRejected.Load(); got != uint64(i+1) {
			t.Errorf("%s: reload_rejected = %d, want %d", c.name, got, i+1)
		}
	}

	// The HTTP surface: a rejected reload is 422 with the cause.
	status, body := s.DoLocal(http.MethodPost, "/admin/reload", "")
	if status != http.StatusUnprocessableEntity || !strings.Contains(string(body), `"cause"`) {
		t.Fatalf("POST /admin/reload on bad file: status %d, body %s (want 422 with cause)", status, body)
	}

	writePredictorJSON(t, path, nil)
	gen, err := s.Reload()
	if err != nil {
		t.Fatalf("Reload of good file: %v", err)
	}
	if gen != gen0+1 {
		t.Fatalf("generation after accepted reload = %d, want %d", gen, gen0+1)
	}
	if got := s.met.srv.reloads.Load(); got != 1 {
		t.Errorf("reloads = %d, want 1", got)
	}
}

// TestReloadProbeBranches drives the golden probe's other branches
// through Reload: an incoming cell the tables cannot score and a
// non-finite prediction are rejected, and a cell the serving
// generation could not score is skipped.
func TestReloadProbeBranches(t *testing.T) {
	var saved bytes.Buffer
	if err := testSystem(t).Save(&saved); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(saved.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc["degraded"] != nil {
		t.Fatal("the test system has degraded devices; dropping a comm model would not fail its cells")
	}
	// Dropping the file's first comm model leaves its (device, k)
	// without a comm term on a device that is not degraded.
	first := doc["comm_models"].([]any)[0].(map[string]any)
	gpu, k := first["gpu"].(string), int(first["k"].(float64))
	dropComm := func(doc map[string]any) { doc["comm_models"] = doc["comm_models"].([]any)[1:] }
	// The probe visits zoo models in serving order and, for each, the
	// full candidate set in order, so the first model's first candidate
	// on (gpu, k) is the first cell to fail.
	order := newTestServer(t, Options{})
	ci := slices.IndexFunc(order.candsByK[order.maxK], func(cfg ceer.InstanceConfig) bool {
		return string(cfg.GPU) == gpu && cfg.K == k
	})
	if ci < 0 {
		t.Fatalf("no candidate runs %s on %d GPUs", gpu, k)
	}
	firstCell := "probe " + order.models[0].name + "/" + order.metaByK[order.maxK][ci].config + ": "

	cases := []struct {
		name       string
		boot, next func(map[string]any) // nil writes the test system unchanged
		want       string               // in the rejection; "" = accepted
	}{
		{"incoming cell unscorable", nil, dropComm, firstCell},
		{"non-finite prediction", nil, func(doc map[string]any) { doc["light_median"] = 1e308 },
			"non-finite or non-positive prediction"},
		{"serving cell unscorable", dropComm, nil, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "models.json")
			writePredictorJSON(t, path, c.boot)
			sys, err := ceer.LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(sys, Options{ModelPath: path})
			if err != nil {
				t.Fatal(err)
			}
			writePredictorJSON(t, path, c.next)
			gen, err := s.Reload()
			if c.want == "" {
				if err != nil || gen != 1 {
					t.Fatalf("Reload: generation %d, %v; want generation 1 accepted", gen, err)
				}
				return
			}
			var re *ReloadError
			if !errors.As(err, &re) || re.Cause != ReloadCauseProbe {
				t.Fatalf("Reload error = %v, want a *ReloadError with cause %q", err, ReloadCauseProbe)
			}
			if !strings.Contains(re.Err.Error(), c.want) {
				t.Fatalf("rejection %q does not contain %q", re.Err, c.want)
			}
			if got := s.Generation(); got != 0 {
				t.Fatalf("generation moved to %d on a rejected reload", got)
			}
		})
	}
}

// TestReloadRefusedWhileCalibrating: with calibration on, the
// calibrator owns the serving model, and its next swap would replace a
// reloaded file. So a reload is refused before the file is read (409
// over HTTP), and the generation and the served bytes stay unchanged.
func TestReloadRefusedWhileCalibrating(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	writePredictorJSON(t, path, func(doc map[string]any) {
		doc["light_median"] = doc["light_median"].(float64) * 1.2
	})
	s := newTestServer(t, Options{ModelPath: path, Calibration: &CalibrationOptions{}})
	_, before := s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50")
	status, body := s.DoLocal(http.MethodPost, "/admin/reload", "")
	if status != http.StatusConflict || !strings.Contains(string(body), "calibration owns the serving model") {
		t.Fatalf("POST /admin/reload while calibrating: status %d, body %s (want 409 naming calibration)", status, body)
	}
	_, err := s.Reload()
	var re *ReloadError
	if err == nil || errors.As(err, &re) {
		t.Fatalf("Reload while calibrating = %v, want a plain refusal", err)
	}
	if got := s.Generation(); got != 0 {
		t.Fatalf("generation moved to %d through a refused reload", got)
	}
	if _, after := s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50"); !bytes.Equal(after, before) {
		t.Fatalf("served bytes changed through a refused reload:\n%s\nwant\n%s", after, before)
	}
}

// TestCalibrationSwapValidated: forced refits stage new tables; with a
// generous tolerance they install (generation advances), with a
// near-zero tolerance the probe rejects them and the serving
// generation never moves.
func TestCalibrationSwapValidated(t *testing.T) {
	lines := testObsLines(t, 2000)
	pol := ceer.CalibrationPolicy{RefitEvery: 64}

	accept := newTestServer(t, Options{
		ReloadTolerance: 1e9,
		Calibration:     &CalibrationOptions{Policy: pol},
	})
	gen0 := accept.Generation()
	postObserve(t, accept, obsBody(lines), http.StatusOK)
	if swaps := accept.met.srv.calibSwaps.Load(); swaps == 0 {
		t.Fatal("no calibration swaps installed under an accept-everything tolerance")
	}
	if accept.Generation() == gen0 {
		t.Fatal("generation did not advance on an installed calibration swap")
	}

	reject := newTestServer(t, Options{
		ReloadTolerance: 1e-9,
		Calibration:     &CalibrationOptions{Policy: pol},
	})
	gen0 = reject.Generation()
	postObserve(t, reject, obsBody(scaleObs(t, lines, 1.02)), http.StatusOK)
	if rejected := reject.met.srv.calibSwapsRejected.Load(); rejected == 0 {
		t.Fatal("no rejected calibration swaps under a zero tolerance and shifted observations")
	}
	if got := reject.Generation(); got != gen0 {
		t.Fatalf("generation moved to %d through rejected swaps (started %d)", got, gen0)
	}
	snap := getJSON(t, reject, "/metrics", "", http.StatusOK)
	if snap["server"].(map[string]any)["last_reload_cause"] != ReloadCauseProbe {
		t.Fatalf("last_reload_cause = %v, want %q", snap["server"].(map[string]any)["last_reload_cause"], ReloadCauseProbe)
	}
}

// TestCalibratedAnswersLikeSavedPredictor: after several refits
// install, a calibrated daemon answers every model like a fresh daemon
// built from its saved predictor. The observations go in 500-line
// bodies, as perfbench sends them, so the refit tables, the probe, the
// install and the generation's pre-rendered bytes are all on the path.
func TestCalibratedAnswersLikeSavedPredictor(t *testing.T) {
	lines := scaleObs(t, testObsLines(t, math.MaxInt), 1.3)
	s := newTestServer(t, Options{Calibration: &CalibrationOptions{}})
	for start := 0; start < len(lines); start += 500 {
		postObserve(t, s, obsBody(lines[start:min(start+500, len(lines))]), http.StatusOK)
	}
	swaps, rejected := s.met.srv.calibSwaps.Load(), s.met.srv.calibSwapsRejected.Load()
	if swaps < 2 || rejected != 0 {
		t.Fatalf("%d refit tables installed and %d rejected, want several and none", swaps, rejected)
	}
	t.Logf("%d observations in %d bodies installed %d refit tables", len(lines), (len(lines)+499)/500, swaps)
	var saved bytes.Buffer
	if err := s.SaveCalibrated(&saved); err != nil {
		t.Fatal(err)
	}
	sys, err := ceer.Load(&saved)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := New(sys, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range ceer.Models() {
		for _, pricing := range []string{"", "&pricing=market"} {
			q := "model=" + model + pricing
			for _, req := range [][2]string{
				{"/v1/predict", q},
				{"/v1/predict", q + "&config=2xP3"},
				{"/v1/recommend", q + "&objective=cost"},
				{"/v1/recommend", q + "&objective=time"},
			} {
				wantStatus, want := fresh.DoLocal(http.MethodGet, req[0], req[1])
				status, got := s.DoLocal(http.MethodGet, req[0], req[1])
				if wantStatus != http.StatusOK || status != wantStatus || !bytes.Equal(got, want) {
					t.Fatalf("GET %s?%s: calibrated daemon answered %d\n%s\nfresh daemon answered %d\n%s",
						req[0], req[1], status, got, wantStatus, want)
				}
			}
		}
	}
}

// TestPanicBreakerStateMachine walks healthy → degraded → healthy on a
// virtual clock: recovered panics return 500s, the breaker trips at
// the threshold, a degraded daemon keeps serving prediction traffic
// while shedding calibration, and panic-free recovery time heals it.
func TestPanicBreakerStateMachine(t *testing.T) {
	vc := &vClock{}
	vc.set(1e9) // a zero clock would read as "no window anchor"
	s := newTestServer(t, Options{
		Clock:          vc,
		PanicThreshold: 2,
		PanicWindow:    10 * time.Second,
		RecoveryWindow: 30 * time.Second,
		Calibration:    &CalibrationOptions{},
	})
	var arm bool
	s.afterAdmit = func(int) {
		if arm {
			panic("chaos: injected test panic")
		}
	}

	health := func() string {
		return getJSON(t, s, "/healthz", "", http.StatusOK)["status"].(string)
	}
	if got := health(); got != stateHealthy {
		t.Fatalf("initial state %q, want %q", got, stateHealthy)
	}

	arm = true
	for i := 0; i < 2; i++ {
		status, body := s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50")
		if status != http.StatusInternalServerError || !strings.Contains(string(body), "panic") {
			t.Fatalf("panicking request %d: status %d, body %s (want 500 mentioning panic)", i, status, body)
		}
	}
	arm = false

	if got := health(); got != stateDegraded {
		t.Fatalf("state after %d panics = %q, want %q", 2, got, stateDegraded)
	}
	if got := s.met.srv.panics.Load(); got != 2 {
		t.Errorf("panics = %d, want 2", got)
	}
	if got := s.met.srv.degradedEntries.Load(); got != 1 {
		t.Errorf("degraded_entries = %d, want 1", got)
	}

	// Degraded still serves predictions on the last good tables...
	if status, body := s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50"); status != http.StatusOK {
		t.Fatalf("predict while degraded: status %d: %s", status, body)
	}
	// ...but sheds calibration.
	status, _ := s.DoLocalBody(http.MethodPost, "/v1/observe", "", obsBody(testObsLines(t, 1)))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("observe while degraded: status %d, want 503", status)
	}
	if got := s.met.srv.calibShed.Load(); got != 1 {
		t.Errorf("calib_shed = %d, want 1", got)
	}

	// Recovery: panic-free time heals the breaker.
	vc.advance(31 * int64(time.Second))
	if got := health(); got != stateHealthy {
		t.Fatalf("state after recovery window = %q, want %q", got, stateHealthy)
	}
	if status, _ := s.DoLocalBody(http.MethodPost, "/v1/observe", "", obsBody(testObsLines(t, 1))); status != http.StatusOK {
		t.Fatalf("observe after recovery: status %d, want 200", status)
	}
}

// TestPanicDoesNotLeakScratches: a panicking handler has already
// checked out an arena scratch; its deferred put runs during
// unwinding, before recoverPanic. After a burst of panics the arena
// must still serve correct predictions (a leaked or double-put scratch
// corrupts responses).
func TestPanicDoesNotLeakScratches(t *testing.T) {
	s := newTestServer(t, Options{PanicThreshold: 1 << 30})
	_, want := s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50")

	var arm bool
	s.afterAdmit = func(int) {
		if arm {
			panic("chaos: scratch-leak probe")
		}
	}
	for i := 0; i < 64; i++ {
		arm = true
		s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50")
		arm = false
		if _, got := s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50"); !bytes.Equal(got, want) {
			t.Fatalf("prediction changed after %d panics:\n got: %s\nwant: %s", i+1, got, want)
		}
	}
}

// TestShutdownDrainTimeout: a wedged in-flight request cannot hang
// shutdown — the deadline force-closes the listener and reports the
// straggler count through DrainError.
func TestShutdownDrainTimeout(t *testing.T) {
	s := newTestServer(t, Options{})
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.afterAdmit = func(int) {
		entered <- struct{}{}
		<-block
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.DoLocal(http.MethodGet, "/v1/predict", "model=resnet-50")
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	var de *DrainError
	if !errors.As(err, &de) {
		t.Fatalf("Shutdown = %v, want *DrainError", err)
	}
	if de.InFlight != 1 {
		t.Errorf("DrainError.InFlight = %d, want 1", de.InFlight)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("DrainError should unwrap to the context error, got %v", err)
	}
	close(block)
	<-done
}

// TestTailObsLog: the obs-log tail mode follows a growing file,
// applies complete lines, waits for an unterminated final line, and
// drops malformed lines without giving up on the stream.
func TestTailObsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "live.jsonl")
	s := newTestServer(t, Options{Calibration: &CalibrationOptions{}})
	lines := testObsLines(t, 4)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tailDone := make(chan error, 1)
	go func() { tailDone <- s.TailObsLog(ctx, path, time.Millisecond) }()

	waitCount := func(want uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for s.met.srv.calibObs.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("tail applied %d observations, want %d", s.met.srv.calibObs.Load(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errdrop cleanup backstop; every write below is checked explicitly
	defer f.Close()
	// Two complete lines, then a partial third with no newline: only
	// the complete ones may apply.
	if _, err := f.Write(append(obsBody(lines[:2]), lines[2][:8]...)); err != nil {
		t.Fatal(err)
	}
	waitCount(2)
	if got := s.met.srv.calibObs.Load(); got != 2 {
		t.Fatalf("calib_obs = %d before the partial line completed, want 2", got)
	}
	// Complete the third line, add a malformed one, then a fourth good.
	rest := append(lines[2][8:], '\n')
	rest = append(rest, []byte("{malformed\n")...)
	rest = append(rest, obsBody(lines[3:4])...)
	if _, err := f.Write(rest); err != nil {
		t.Fatal(err)
	}
	waitCount(4)
	if got := s.met.srv.calibDropped.Load(); got != 1 {
		t.Errorf("calib_dropped = %d, want 1", got)
	}

	cancel()
	select {
	case err := <-tailDone:
		if err != nil {
			t.Fatalf("TailObsLog: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("TailObsLog did not stop on context cancellation")
	}
}

// TestTailSettlesLikePost: observations tailed from a log settle like
// the same lines POSTed as one body. A poll is one batch, so the tailing
// daemon installs once per poll, not once per line, and it reports the
// same drifted_cells. Under the first policy cells drift but never
// refit; under the second, drift refits, every staged table passes the
// probe, and the refits clear the drift.
func TestTailSettlesLikePost(t *testing.T) {
	lines := scaleObs(t, testObsLines(t, 2000), 1.6)
	cases := []struct {
		name    string
		opts    Options
		drifted bool // cells still drifted after the batch
	}{
		{"drift-only", Options{Calibration: &CalibrationOptions{Policy: ceer.CalibrationPolicy{MinRefitObs: 1 << 30}}}, true},
		{"refits", Options{ReloadTolerance: 1e9, Calibration: &CalibrationOptions{}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			posted := newTestServer(t, tc.opts)
			gen0 := posted.Generation()
			postObserve(t, posted, obsBody(lines), http.StatusOK)

			path := filepath.Join(t.TempDir(), "obs.jsonl")
			if err := os.WriteFile(path, obsBody(lines), 0o644); err != nil {
				t.Fatal(err)
			}
			tailed := newTestServer(t, tc.opts)
			ctx, cancel := context.WithCancel(context.Background())
			tailDone := make(chan error, 1)
			go func() { tailDone <- tailed.TailObsLog(ctx, path, time.Millisecond) }()
			deadline := time.Now().Add(10 * time.Second)
			for tailed.met.srv.calibObs.Load() < uint64(len(lines)) {
				if time.Now().After(deadline) {
					t.Fatalf("tail applied %d observations, want %d", tailed.met.srv.calibObs.Load(), len(lines))
				}
				time.Sleep(2 * time.Millisecond)
			}
			// TailObsLog returns only between polls, so the poll that
			// applied the lines has settled.
			cancel()
			if err := <-tailDone; err != nil {
				t.Fatalf("TailObsLog: %v", err)
			}

			var want, got bytes.Buffer
			if err := posted.SaveCalibrated(&want); err != nil {
				t.Fatal(err)
			}
			if err := tailed.SaveCalibrated(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Error("tailed calibrated predictor differs from the POSTed one")
			}
			pd := getJSON(t, posted, "/healthz", "", http.StatusOK)["drifted_cells"]
			td := getJSON(t, tailed, "/healthz", "", http.StatusOK)["drifted_cells"]
			if pd != td || (pd != 0.0) != tc.drifted {
				t.Errorf("drifted_cells: tailed %v, POSTed %v (want equal, nonzero %v)", td, pd, tc.drifted)
			}
			pg, tg := posted.Generation(), tailed.Generation()
			if pg != tg {
				t.Errorf("generation: tailed %d, POSTed %d", tg, pg)
			}
			if advanced := pg != gen0; advanced == tc.drifted {
				t.Errorf("POSTed generation %d → %d; want it to advance only where refits clear the drift", gen0, pg)
			}
		})
	}
}

// TestReloadHammer pounds /admin/reload with reject→accept cycles
// while prediction traffic flows: every admin response is an accept
// (200) or a typed rejection (422), prediction traffic never sees a
// 5xx, and the generation only ever advances on accepts. Run with
// -race this also proves the reload path is data-race-free against
// the hot path.
func TestReloadHammer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "models.json")
	writePredictorJSON(t, path, nil)
	s := newTestServer(t, Options{ModelPath: path})
	s.reloadRetry.Sleep = func(time.Duration) {}

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte("{torn mid-write")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Writer: flip the file between good and corrupt.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			content := good
			if i%2 == 1 {
				content = bad
			}
			tmp := path + ".tmp"
			if err := os.WriteFile(tmp, content, 0o644); err != nil {
				t.Error(err)
				return
			}
			if err := os.Rename(tmp, path); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Reloaders.
	var accepts, rejects atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				status, body := s.DoLocal(http.MethodPost, "/admin/reload", "")
				switch status {
				case http.StatusOK:
					accepts.Add(1)
				case http.StatusUnprocessableEntity:
					rejects.Add(1)
				default:
					t.Errorf("reload: unexpected status %d: %s", status, body)
					return
				}
			}
		}()
	}
	// Prediction traffic, checking generation monotonicity.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastGen float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if status, body := s.DoLocal(http.MethodGet, "/v1/predict", "model=alexnet"); status != http.StatusOK {
				t.Errorf("predict during reload hammer: status %d: %s", status, body)
				return
			}
			h := getJSON(t, s, "/healthz", "", http.StatusOK)
			if gen := h["generation"].(float64); gen < lastGen {
				t.Errorf("generation went backwards: %v -> %v", lastGen, gen)
				return
			} else {
				lastGen = gen
			}
		}
	}()

	// All reloaders run a fixed count; once they finish, stop the
	// writer and traffic and check the invariants.
	reloadersDone := make(chan struct{})
	go func() {
		// The writer and traffic goroutines only exit via stop, so wait
		// for total admin responses instead.
		for accepts.Load()+rejects.Load() < 200 {
			time.Sleep(time.Millisecond)
		}
		close(reloadersDone)
	}()
	select {
	case <-reloadersDone:
	case <-time.After(60 * time.Second):
		t.Fatal("reload hammer wedged")
	}
	close(stop)
	wg.Wait()
	if s.Generation() != accepts.Load() {
		t.Errorf("generation %d != accepted reloads %d", s.Generation(), accepts.Load())
	}
	if accepts.Load() == 0 {
		t.Error("hammer never accepted a reload")
	}
	if rejects.Load() == 0 {
		t.Error("hammer never rejected a reload (writer too slow?)")
	}
}
