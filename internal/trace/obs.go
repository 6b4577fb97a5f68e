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
	"fmt"
	"io"
	"math"

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
// decoder every observation reader shares.
func DecodeObs(line []byte) (Obs, error) {
	var o Obs
	if err := jsonl.Decode(line, &o); err != nil {
		return Obs{}, err
	}
	if err := o.Validate(); err != nil {
		return Obs{}, err
	}
	return o, nil
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

// Read returns the next observation, or io.EOF at the end of the log.
func (r *ObsReader) Read() (Obs, error) {
	line, err := r.Next()
	if err == io.EOF {
		return Obs{}, io.EOF
	}
	if err != nil {
		return Obs{}, fmt.Errorf("trace: observation log: %w", err)
	}
	o, err := DecodeObs(line)
	if err != nil {
		return Obs{}, fmt.Errorf("trace: observation log: line %d: %w", r.Line(), err)
	}
	return o, nil
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
		o, err := or.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
}
