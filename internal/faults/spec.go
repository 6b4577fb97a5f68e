package faults

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"ceer/internal/jsonl"
)

// Spec declaratively configures a fault Injector. The zero value
// injects nothing. Specs are loadable from a small JSON file (see
// LoadSpec) so a fault scenario can be version-controlled and replayed
// bit-for-bit.
type Spec struct {
	// Seed drives every injection draw. The injector derives one
	// independent stream per (stage, CNN, device, k) cell and one draw
	// per attempt, so whether a given attempt faults is a pure function
	// of (Seed, cell, attempt) — independent of worker count and
	// execution order.
	Seed uint64 `json:"seed"`

	// TransientRate is the probability that any single attempt fails
	// with a Transient fault (0 ≤ rate < 1).
	TransientRate float64 `json:"transient_rate,omitempty"`

	// PermanentRate is the probability that a cell fails permanently:
	// drawn once per cell (not per attempt), so a permanently faulted
	// cell fails every attempt.
	PermanentRate float64 `json:"permanent_rate,omitempty"`

	// PermanentDevices lists device IDs whose every cell fails with a
	// Permanent fault — the "this GPU model is broken for us" scenario.
	PermanentDevices []string `json:"permanent_devices,omitempty"`

	// StragglerRate is the probability that an attempt is a straggler:
	// it is delayed by StragglerDelayMS before proceeding (the attempt
	// itself still succeeds or fails per the rates above).
	StragglerRate float64 `json:"straggler_rate,omitempty"`

	// StragglerDelayMS is the injected straggler latency, milliseconds,
	// at most maxStragglerDelayMS.
	StragglerDelayMS int `json:"straggler_delay_ms,omitempty"`

	// Preempt lists deterministic preemption points: when the named
	// cell reaches the given attempt number, the injector returns a
	// Preempted fault, which aborts the whole campaign. A checkpointed
	// campaign resumes past the preemption because the interrupted
	// cell's consumed attempts are recorded — the resumed cell starts at
	// a later attempt and the preemption point never matches again.
	Preempt []PreemptPoint `json:"preempt,omitempty"`
}

// PreemptPoint is one deterministic preemption trigger.
type PreemptPoint struct {
	// Stage is the campaign stage ("profile" or "comm"); empty matches
	// any stage.
	Stage string `json:"stage,omitempty"`
	// CNN and Device name the cell; empty matches any.
	CNN    string `json:"cnn,omitempty"`
	Device string `json:"device,omitempty"`
	// K is the GPU count of a comm cell (0 = profile cells / any k).
	K int `json:"k,omitempty"`
	// Attempt is the attempt number (1-based) the preemption fires on.
	Attempt int `json:"attempt"`
}

// maxStragglerDelayMS is the largest straggler delay whose
// time.Duration (Inject multiplies by time.Millisecond) does not
// overflow: a larger one wraps negative, and a negative delay is never
// waited for.
const maxStragglerDelayMS = math.MaxInt64 / int64(time.Millisecond)

// Validate checks the spec's rates, straggler delay and preemption
// points.
func (s *Spec) Validate() error {
	check := func(name string, rate float64) error {
		if rate < 0 || rate >= 1 {
			return fmt.Errorf("faults: %s %v outside [0, 1)", name, rate)
		}
		return nil
	}
	if err := check("transient_rate", s.TransientRate); err != nil {
		return err
	}
	if err := check("permanent_rate", s.PermanentRate); err != nil {
		return err
	}
	if err := check("straggler_rate", s.StragglerRate); err != nil {
		return err
	}
	if s.StragglerDelayMS < 0 {
		return fmt.Errorf("faults: straggler_delay_ms %d is negative", s.StragglerDelayMS)
	}
	if int64(s.StragglerDelayMS) > maxStragglerDelayMS {
		return fmt.Errorf("faults: straggler_delay_ms %d exceeds %d, the longest delay a time.Duration holds",
			s.StragglerDelayMS, maxStragglerDelayMS)
	}
	for i, p := range s.Preempt {
		if p.Attempt < 1 {
			return fmt.Errorf("faults: preempt[%d] attempt %d; attempts are 1-based", i, p.Attempt)
		}
	}
	return nil
}

// Enabled reports whether the spec injects anything at all.
func (s *Spec) Enabled() bool {
	if s == nil {
		return false
	}
	return s.TransientRate > 0 || s.PermanentRate > 0 || len(s.PermanentDevices) > 0 ||
		s.StragglerRate > 0 || len(s.Preempt) > 0
}

// ParseSpec decodes and validates a JSON spec. The input must hold
// exactly one JSON value, and unknown fields are rejected, so a typo or
// a second object cannot silently run a different scenario.
func ParseSpec(r io.Reader) (*Spec, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("faults: reading spec: %w", err)
	}
	var s Spec
	if err := jsonl.Decode(data, &s); err != nil {
		return nil, fmt.Errorf("faults: decoding spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads a spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errdrop read-side close; there are no buffered writes to lose
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("faults: spec %s: %w", path, err)
	}
	return s, nil
}
