package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/jsonl"
	"ceer/internal/ops"
	"ceer/internal/rng"
	"ceer/internal/trace/corrupt"
)

// obsProfile builds a small profile with two series for stream tests.
func obsProfile(cnn string, m gpu.ID) *Profile {
	mk := func(node int, t ops.Type, feats []float64, samples ...float64) *Series {
		agg := NewAgg(len(samples))
		for _, s := range samples {
			agg.Add(s)
		}
		meta, _ := ops.Lookup(t)
		return &Series{CNN: cnn, GPU: m, Node: graph.NodeID(node), OpType: t,
			Class: meta.Class, Features: feats, Agg: agg}
	}
	total := NewAgg(0)
	total.Add(0.5)
	total.Add(0.6)
	return &Profile{
		CNN: cnn, GPU: m, Iterations: 2, Params: 1000, BatchSize: 32,
		Series: []*Series{
			mk(0, "Conv2D", []float64{1, 2, 3}, 0.30, 0.40),
			mk(1, "MatMul", []float64{4, 5}, 0.10, 0.20),
		},
		IterTotal: total,
	}
}

// TestBundleObservations pins the stream contract: profiles in bundle
// order, series in node order, each carrying the series mean.
func TestBundleObservations(t *testing.T) {
	b := &Bundle{}
	b.Add(obsProfile("cnn-a", gpu.V100))
	b.Add(obsProfile("cnn-b", gpu.K80))
	var got []Obs
	if err := b.Observations(func(o Obs) error { got = append(got, o); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("streamed %d observations, want 4", len(got))
	}
	want := []struct {
		cnn string
		m   gpu.ID
		op  ops.Type
		sec float64
	}{
		{"cnn-a", gpu.V100, "Conv2D", 0.35},
		{"cnn-a", gpu.V100, "MatMul", 0.15},
		{"cnn-b", gpu.K80, "Conv2D", 0.35},
		{"cnn-b", gpu.K80, "MatMul", 0.15},
	}
	for i, w := range want {
		o := got[i]
		if o.CNN != w.cnn || o.GPU != w.m || o.Op != w.op || !approxObs(o.Seconds, w.sec) {
			t.Errorf("obs[%d] = %+v, want %+v", i, o, w)
		}
	}
	// Emission stops at the first emit error.
	calls := 0
	err := b.Observations(func(Obs) error { calls++; return io.ErrClosedPipe })
	if err != io.ErrClosedPipe || calls != 1 {
		t.Errorf("error propagation: err=%v calls=%d", err, calls)
	}
}

func approxObs(a, b float64) bool { d := a - b; return d < 1e-12 && d > -1e-12 }

// TestObsLogRoundTrip pins the JSONL codec: write → read reproduces
// the stream, and the bytes are deterministic.
func TestObsLogRoundTrip(t *testing.T) {
	b := &Bundle{}
	b.Add(obsProfile("cnn-a", gpu.V100))
	var buf1, buf2 bytes.Buffer
	if err := WriteObsLog(&buf1, b); err != nil {
		t.Fatal(err)
	}
	if err := WriteObsLog(&buf2, b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Error("observation log is not byte-deterministic")
	}
	got, err := ReadObsLog(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var want []Obs
	if err := b.Observations(func(o Obs) error { want = append(want, o); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d observations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].CNN != want[i].CNN || got[i].GPU != want[i].GPU ||
			got[i].Node != want[i].Node || got[i].Op != want[i].Op ||
			math.Float64bits(got[i].Seconds) != math.Float64bits(want[i].Seconds) {
			t.Errorf("obs[%d] round-trip mismatch: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestObsReaderErrors pins line-numbered failures for malformed logs.
// Decode failures are fatal on every newline-terminated line (only an
// unterminated final line is a torn tail, tested separately);
// validation failures are fatal anywhere, including the final line.
func TestObsReaderErrors(t *testing.T) {
	good := `{"cnn":"a","gpu":"v100","node":0,"op":"Conv2D","features":[1],"seconds":0.5}`
	cases := []struct {
		name string
		log  string
		want string
	}{
		{"bad json mid-log", good + "\n{broken\n" + good + "\n", "line 2"},
		{"bad json terminated final line", good + "\n{broken\n", "line 2"},
		{"two records on one line", good + good + "\n", "line 1"},
		{"unknown field mid-log", `{"cnn":"a","gpu":"v100","node":0,"op":"Conv2D","features":[1],"seconds":1,"extra":1}` + "\n" + good + "\n", "line 1"},
		{"unregistered device", `{"cnn":"a","gpu":"nope","node":0,"op":"Conv2D","features":[1],"seconds":1}`, "unregistered device"},
		{"unknown op", `{"cnn":"a","gpu":"v100","node":0,"op":"Nope","features":[1],"seconds":1}`, "unknown op type"},
		{"no features", `{"cnn":"a","gpu":"v100","node":0,"op":"Conv2D","features":[],"seconds":1}`, "no features"},
		{"negative seconds", `{"cnn":"a","gpu":"v100","node":0,"op":"Conv2D","features":[1],"seconds":-1}`, "invalid seconds"},
	}
	for _, tc := range cases {
		_, err := ReadObsLog(strings.NewReader(tc.log))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Blank lines are tolerated.
	got, err := ReadObsLog(strings.NewReader("\n" + good + "\n\n"))
	if err != nil || len(got) != 1 {
		t.Errorf("blank-line log: got %d obs, err %v", len(got), err)
	}
}

// readAllTorn drains a reader, returning the records, the terminal
// error (nil for clean EOF), and the torn-line marker.
func readAllTorn(r io.Reader) ([]Obs, error, int) {
	or := NewObsReader(r)
	var out []Obs
	for {
		o, _, err := or.Read()
		if err == io.EOF {
			return out, nil, or.Torn()
		}
		if err != nil {
			return out, err, or.Torn()
		}
		out = append(out, o)
	}
}

// TestObsReaderCorruption drives the shared journal-corruption table
// (internal/trace/corrupt) through the observation reader: torn final
// lines recover the intact prefix, damage anywhere else fails — the
// same contract the campaign checkpoint codec pins against the same
// table.
func TestObsReaderCorruption(t *testing.T) {
	b := &Bundle{}
	b.Add(obsProfile("cnn-a", gpu.V100))
	b.Add(obsProfile("cnn-b", gpu.K80))
	var buf bytes.Buffer
	if err := WriteObsLog(&buf, b); err != nil {
		t.Fatal(err)
	}
	intact := buf.Bytes()
	full, err, torn := readAllTorn(bytes.NewReader(intact))
	if err != nil || torn != 0 {
		t.Fatalf("intact log: err %v, torn %d", err, torn)
	}
	for _, tc := range corrupt.Cases() {
		mutated := tc.Mutate(append([]byte{}, intact...))
		got, err, torn := readAllTorn(bytes.NewReader(mutated))
		switch tc.Want {
		case corrupt.WantAll:
			if err != nil || len(got) != len(full) || torn != 0 {
				t.Errorf("%s: got %d obs, err %v, torn %d; want all %d clean",
					tc.Name, len(got), err, torn, len(full))
			}
		case corrupt.WantTorn:
			wantLen := len(full)
			if bytes.HasPrefix(mutated, bytes.TrimRight(intact, "\n")) {
				// The fragment was appended after the intact log; no
				// complete record was lost.
			} else {
				wantLen--
			}
			if err != nil || len(got) != wantLen || torn == 0 {
				t.Errorf("%s: got %d obs, err %v, torn %d; want %d obs with torn tail",
					tc.Name, len(got), err, torn, wantLen)
			}
		case corrupt.WantErr:
			if err == nil {
				t.Errorf("%s: corruption must be an error (got %d obs)", tc.Name, len(got))
			}
		}
	}
}

// decodeObsReference is DecodeObs through encoding/json alone: the
// behaviour the canonical scan must reproduce. A line json.Valid
// rejects is rejected here even if jsonl.Decode took it, so a decoder
// that accepts what is not JSON differs from its reference.
func decodeObsReference(line []byte) (Obs, error) {
	var o Obs
	if err := jsonl.Decode(line, &o); err != nil {
		return Obs{}, err
	}
	if !json.Valid(line) {
		return Obs{}, errors.New("not valid JSON")
	}
	if err := o.Validate(); err != nil {
		return Obs{}, err
	}
	return o, nil
}

// sameObs reports whether a and b are equal with every float compared
// by its bits, so -0 is not 0.
func sameObs(a, b Obs) bool {
	if a.CNN != b.CNN || a.GPU != b.GPU || a.Node != b.Node || a.Op != b.Op ||
		math.Float64bits(a.Seconds) != math.Float64bits(b.Seconds) || len(a.Features) != len(b.Features) {
		return false
	}
	for i := range a.Features {
		if math.Float64bits(a.Features[i]) != math.Float64bits(b.Features[i]) {
			return false
		}
	}
	return true
}

// checkDecodeObs pins DecodeObs to the reference on line: the same
// error text, or the same value.
func checkDecodeObs(t *testing.T, line []byte) {
	t.Helper()
	got, gotErr := DecodeObs(line)
	want, wantErr := decodeObsReference(line)
	switch {
	case (gotErr == nil) != (wantErr == nil),
		gotErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("DecodeObs(%q) error %v, encoding/json %v", line, gotErr, wantErr)
	case !sameObs(got, want):
		t.Fatalf("DecodeObs(%q) = %+v, encoding/json %+v", line, got, want)
	}
}

// FuzzDecodeObs: for any line, DecodeObs agrees with encoding/json
// plus Validate. The seed corpus under testdata/fuzz/FuzzDecodeObs
// holds canonical lines of the calibration fixture and the
// non-canonical forms the scan must hand to encoding/json.
func FuzzDecodeObs(f *testing.F) {
	f.Fuzz(checkDecodeObs)
}

// TestDecodeObsScansWriterOutput: every line ObsWriter writes takes
// the canonical scan, whatever its floats, and decodes to the value
// written, bit for bit.
func TestDecodeObsScansWriterOutput(t *testing.T) {
	r := rng.New(1)
	var buf bytes.Buffer
	w := NewObsWriter(&buf)
	var want []Obs
	for i := 0; i < 2000; i++ {
		o := Obs{CNN: "cnn-a", GPU: gpu.V100, Node: graph.NodeID(r.Intn(1 << 20)), Op: "Conv2D",
			Features: make([]float64, 1+r.Intn(6)), Seconds: math.Float64frombits(r.Uint64() >> 2)}
		for j := range o.Features {
			o.Features[j] = math.Float64frombits(r.Uint64()) * float64(1-2*(j%2))
			if math.IsNaN(o.Features[j]) || math.IsInf(o.Features[j], 0) {
				o.Features[j] = float64(j)
			}
		}
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
		want = append(want, o)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, line := range bytes.Split(bytes.TrimSuffix(buf.Bytes(), []byte("\n")), []byte("\n")) {
		got, ok := scanObs(line)
		if !ok || !sameObs(got, want[i]) {
			t.Fatalf("line %d %q: scan = %+v (ok %v), want %+v", i+1, line, got, ok, want[i])
		}
		checkDecodeObs(t, line)
	}
}

// BenchmarkDecodeObs decodes one canonical fixture line through the
// scan and through the encoding/json reference.
func BenchmarkDecodeObs(b *testing.B) {
	line := []byte(`{"cnn":"vgg-11","gpu":"v100","node":4,"op":"Conv2D","features":[19267584,6912,411041792,27,0,0],"seconds":0.0023803723593604498}`)
	for _, bc := range []struct {
		name   string
		decode func([]byte) (Obs, error)
	}{{"scan", DecodeObs}, {"encoding-json", decodeObsReference}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.decode(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
