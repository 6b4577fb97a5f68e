// The observation stream: the incremental form of the training corpus.
// Where Bundle is the materialized campaign artifact, an Obs is one
// (device, op) timing fact — the unit the streaming fit path consumes.
// The batch campaign and live calibration replay share this one shape:
// Bundle.Observations flattens a campaign into the stream in a
// deterministic order (profiles in bundle order, series in node
// order, the exact row order the trainer has always used), and
// ObsWriter/ObsReader, typed wrappers over the jsonl codec, carry the
// same records through files so a serving process can replay an
// observation log against a saved predictor.

package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"

	"ceer/internal/gpu"
	"ceer/internal/graph"
	"ceer/internal/jsonl"
	"ceer/internal/ops"
)

// Obs is one observed op timing: the regression features of a single
// graph node and the seconds it took on a device. Campaign-derived
// observations carry the per-iteration mean; live observations carry a
// single measurement.
type Obs struct {
	// CNN names the model the op belongs to (provenance; not a model
	// input).
	CNN string `json:"cnn"`
	// GPU is the stable device registry ID the op ran on.
	GPU gpu.ID `json:"gpu"`
	// Node is the graph node the op instance occupies.
	Node graph.NodeID `json:"node"`
	// Op is the operation type.
	Op ops.Type `json:"op"`
	// Features is the op's regression feature vector (input sizes).
	Features []float64 `json:"features"`
	// Seconds is the observed compute time.
	Seconds float64 `json:"seconds"`
}

// Validate checks one observation against the loading process's
// registries — the same discipline as the profile state codec.
func (o *Obs) Validate() error {
	if _, ok := gpu.Lookup(o.GPU); !ok {
		return fmt.Errorf("trace: observation references unregistered device %q", o.GPU)
	}
	if _, ok := ops.Lookup(o.Op); !ok {
		return fmt.Errorf("trace: observation has unknown op type %q", o.Op)
	}
	if len(o.Features) == 0 {
		return fmt.Errorf("trace: observation %s/%s has no features", o.GPU, o.Op)
	}
	if math.IsNaN(o.Seconds) || math.IsInf(o.Seconds, 0) || o.Seconds < 0 {
		return fmt.Errorf("trace: observation %s/%s has invalid seconds %v", o.GPU, o.Op, o.Seconds)
	}
	return nil
}

// Observations streams the profile's series as observations, in node
// order, carrying each series' mean compute time. Emission stops at
// the first emit error, which is returned.
func (p *Profile) Observations(emit func(Obs) error) error {
	for _, s := range p.Series {
		o := Obs{
			CNN:      p.CNN,
			GPU:      p.GPU,
			Node:     s.Node,
			Op:       s.OpType,
			Features: s.Features,
			Seconds:  s.Agg.Mean(),
		}
		if err := emit(o); err != nil {
			return err
		}
	}
	return nil
}

// Observations streams the bundle's profiles as one observation
// sequence in deterministic order: profiles in bundle order, series in
// node order — the exact row order the batch trainer consumes, so a
// fit over the stream reproduces a fit over the materialized bundle
// bit for bit.
func (b *Bundle) Observations(emit func(Obs) error) error {
	for _, p := range b.Profiles {
		if err := p.Observations(emit); err != nil {
			return err
		}
	}
	return nil
}

// ObsWriter encodes observations as JSONL through the jsonl codec:
// one compact JSON object per line, in emission order, Go's
// shortest-round-trip float encoding — byte-deterministic for a
// deterministic stream.
type ObsWriter struct {
	w   *bufio.Writer
	enc *jsonl.Writer
}

// NewObsWriter wraps w for observation logging.
func NewObsWriter(w io.Writer) *ObsWriter {
	bw := bufio.NewWriter(w)
	return &ObsWriter{w: bw, enc: jsonl.NewWriter(bw)}
}

// Write appends one observation record.
func (w *ObsWriter) Write(o Obs) error {
	if err := w.enc.Append(o); err != nil {
		return fmt.Errorf("trace: encoding observation: %w", err)
	}
	return nil
}

// Flush drains buffered records to the underlying writer.
func (w *ObsWriter) Flush() error { return w.w.Flush() }

// obsLineCap bounds one observation line. Observation streams arrive
// from outside the process, and a POST /v1/observe body has no other
// bound.
const obsLineCap = 4 << 20

// DecodeObs decodes and validates one observation line: the record
// decoder every observation reader shares. A line in the canonical
// form json.Encoder writes for Obs — the six keys in field order, no
// whitespace, strings of printable ASCII without escapes, numbers in
// the JSON grammar that strconv parses — is scanned in one pass without
// reflection. Every other line goes to jsonl.Decode, the encoding/json
// reference the scan must agree with (FuzzDecodeObs): the input bytes
// alone choose the path, so the accepted lines, the decoded values and
// the error text are those of encoding/json.
func DecodeObs(line []byte) (Obs, error) {
	o, ok := scanObs(line)
	if !ok {
		// A value of its own, so only this path moves it to the heap.
		var ref Obs
		if err := jsonl.Decode(line, &ref); err != nil {
			return Obs{}, err
		}
		o = ref
	}
	if err := o.Validate(); err != nil {
		return Obs{}, err
	}
	return o, nil
}

// scanObs decodes a canonical observation line, or reports false for
// any line it does not vouch decodes as encoding/json would decode it.
func scanObs(line []byte) (Obs, bool) {
	s := obsScan{b: line, ok: true}
	var o Obs
	s.lit(`{"cnn":`)
	o.CNN = s.str()
	s.lit(`,"gpu":`)
	o.GPU = gpu.ID(s.str())
	s.lit(`,"node":`)
	o.Node = s.node()
	s.lit(`,"op":`)
	o.Op = ops.Type(s.str())
	s.lit(`,"features":[`)
	o.Features = s.floats()
	s.lit(`],"seconds":`)
	o.Seconds = s.float()
	s.lit(`}`)
	if !s.ok || s.i != len(s.b) {
		return Obs{}, false
	}
	return o, true
}

// obsScan is a cursor over one line. The first mismatch clears ok, and
// every later step is then a no-op.
type obsScan struct {
	b  []byte
	i  int
	ok bool
}

// lit consumes want.
func (s *obsScan) lit(want string) {
	if s.ok && len(s.b)-s.i >= len(want) && string(s.b[s.i:s.i+len(want)]) == want {
		s.i += len(want)
		return
	}
	s.ok = false
}

// str consumes a string of printable ASCII with no escapes, whose
// bytes are its value.
func (s *obsScan) str() string {
	if !s.ok || s.i >= len(s.b) || s.b[s.i] != '"' {
		s.ok = false
		return ""
	}
	for i := s.i + 1; i < len(s.b); i++ {
		switch c := s.b[i]; {
		case c == '"':
			v := string(s.b[s.i+1 : i])
			s.i = i + 1
			return v
		case c < 0x20 || c > 0x7e || c == '\\':
			s.ok = false
			return ""
		}
	}
	s.ok = false
	return ""
}

// number consumes a number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (s *obsScan) number() []byte {
	if !s.ok {
		return nil
	}
	start := s.i
	s.skip('-')
	switch {
	case s.skip('0'):
	case s.i < len(s.b) && '1' <= s.b[s.i] && s.b[s.i] <= '9':
		s.digits()
	default:
		s.ok = false
	}
	if s.skip('.') {
		s.ok = s.ok && s.digits()
	}
	if s.skip('e') || s.skip('E') {
		_ = s.skip('+') || s.skip('-')
		s.ok = s.ok && s.digits()
	}
	return s.b[start:s.i]
}

// skip consumes c if it is next.
func (s *obsScan) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and reports whether it was
// not empty.
func (s *obsScan) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// float consumes a number and parses it as encoding/json parses a
// float64 field; a number strconv rejects (1e400) declines the scan.
func (s *obsScan) float() float64 {
	num := s.number()
	if !s.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		s.ok = false
	}
	return f
}

// node consumes a number and parses it as encoding/json parses an int
// field, so a fraction or an exponent (1.0, 1e2) declines the scan.
func (s *obsScan) node() graph.NodeID {
	num := s.number()
	if !s.ok {
		return 0
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil || int64(int(n)) != n {
		s.ok = false
	}
	return graph.NodeID(n)
}

// floats consumes the elements of a non-empty array of numbers, sized
// in one allocation from the commas before its closing bracket.
func (s *obsScan) floats() []float64 {
	end := -1
	if s.ok {
		end = bytes.IndexByte(s.b[s.i:], ']')
	}
	if end <= 0 {
		s.ok = false
		return nil
	}
	out := make([]float64, 0, bytes.Count(s.b[s.i:s.i+end], []byte{','})+1)
	for s.ok {
		if out = append(out, s.float()); !s.skip(',') {
			break
		}
	}
	return out
}

// ObsReader reads a JSONL observation log through the jsonl codec,
// decoding and validating each record. Errors name their 1-based line.
// A torn tail ends the stream cleanly; check Torn where truncation
// must surface, e.g. for request bodies, which cannot be torn.
type ObsReader struct{ *jsonl.Reader }

// NewObsReader wraps r for observation replay.
func NewObsReader(r io.Reader) *ObsReader {
	return &ObsReader{jsonl.NewReader(r, obsLineCap)}
}

// Read returns the next observation and its record line, trimmed of
// surrounding JSON whitespace, or io.EOF at the end of the log. The
// line is valid until the next call; the daemon journals it as it came.
func (r *ObsReader) Read() (Obs, []byte, error) {
	line, err := r.Next()
	if err == io.EOF {
		return Obs{}, nil, io.EOF
	}
	if err != nil {
		return Obs{}, nil, fmt.Errorf("trace: observation log: %w", err)
	}
	o, err := DecodeObs(line)
	if err != nil {
		return Obs{}, nil, fmt.Errorf("trace: observation log: line %d: %w", r.Line(), err)
	}
	return o, line, nil
}

// WriteObsLog streams a bundle's observations to w as JSONL.
func WriteObsLog(w io.Writer, b *Bundle) error {
	ow := NewObsWriter(w)
	if err := b.Observations(ow.Write); err != nil {
		return err
	}
	return ow.Flush()
}

// ReadObsLog materializes a full observation log (convenience for
// tests and small replays; the calibration loop streams instead).
func ReadObsLog(r io.Reader) ([]Obs, error) {
	or := NewObsReader(r)
	var out []Obs
	for {
		o, _, err := or.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
}
