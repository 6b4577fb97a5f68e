package faults

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestErrorTaxonomy(t *testing.T) {
	cases := []struct {
		err   error
		class error
	}{
		{Transientf("profiling hiccup"), Transient},
		{Permanentf("bad config"), Permanent},
		{Preemptedf("spot reclaim"), Preempted},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.class) {
			t.Errorf("%v should match its class sentinel", c.err)
		}
		for _, other := range []error{Transient, Permanent, Preempted} {
			if other != c.class && errors.Is(c.err, other) {
				t.Errorf("%v must not match foreign class %v", c.err, other)
			}
		}
		// Classification must survive wrapping.
		wrapped := fmt.Errorf("campaign cell vgg-11/t4: %w", c.err)
		if !errors.Is(wrapped, c.class) {
			t.Errorf("wrapped %v lost its class", wrapped)
		}
		var fe *Error
		if !errors.As(wrapped, &fe) || fe.Class != c.class {
			t.Errorf("errors.As failed to recover *Error from %v", wrapped)
		}
	}
}

func TestErrorWrapsCause(t *testing.T) {
	cause := errors.New("kernel launch failed")
	err := Transientf("profiling %s: %w", "resnet-50", cause)
	if !errors.Is(err, cause) {
		t.Error("cause should be reachable through Unwrap")
	}
	if !errors.Is(err, Transient) {
		t.Error("class lost when wrapping a cause")
	}
	if msg := err.Error(); !strings.Contains(msg, "kernel launch failed") || !strings.Contains(msg, "transient fault") {
		t.Errorf("message %q should carry both cause and class", msg)
	}
}

func TestClassHelpers(t *testing.T) {
	if !IsTransient(Transientf("x")) || IsTransient(Permanentf("x")) {
		t.Error("IsTransient misclassifies")
	}
	if !IsPermanent(Permanentf("x")) || IsPermanent(Preemptedf("x")) {
		t.Error("IsPermanent misclassifies")
	}
	if !IsPreempted(Preemptedf("x")) || IsPreempted(errors.New("plain")) {
		t.Error("IsPreempted misclassifies")
	}
}

func TestOpCellKey(t *testing.T) {
	p := Op{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 3}
	if got := p.CellKey(); got != "profile/vgg-11/t4" {
		t.Errorf("profile cell key = %q", got)
	}
	c := Op{Stage: "comm", CNN: "vgg-11", Device: "t4", K: 4, Attempt: 1}
	if got := c.CellKey(); got != "comm/vgg-11/t4/4" {
		t.Errorf("comm cell key = %q", got)
	}
	// The key must not depend on the attempt: it identifies the cell.
	p2 := p
	p2.Attempt = 9
	if p.CellKey() != p2.CellKey() {
		t.Error("cell key must be attempt-independent")
	}
}

func TestInjectDeterministic(t *testing.T) {
	in, err := NewInjector(&Spec{Seed: 7, TransientRate: 0.3, StragglerRate: 0.2, StragglerDelayMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 1},
		{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 2},
		{Stage: "comm", CNN: "resnet-50", Device: "v100", K: 2, Attempt: 1},
	}
	for _, o := range ops {
		d1, e1 := in.Inject(o)
		d2, e2 := in.Inject(o)
		if d1 != d2 || (e1 == nil) != (e2 == nil) {
			t.Errorf("Inject(%+v) is not a pure function: (%v,%v) vs (%v,%v)", o, d1, e1, d2, e2)
		}
	}
	// A fresh injector over the same spec must agree draw for draw.
	in2, err := NewInjector(&Spec{Seed: 7, TransientRate: 0.3, StragglerRate: 0.2, StragglerDelayMS: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		d1, e1 := in.Inject(o)
		d2, e2 := in2.Inject(o)
		if d1 != d2 || (e1 == nil) != (e2 == nil) {
			t.Errorf("independent injectors disagree on %+v", o)
		}
	}
}

func TestInjectTransientRateEmpirical(t *testing.T) {
	in, err := NewInjector(&Spec{Seed: 99, TransientRate: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	faulted := 0
	const n = 2000
	for i := 0; i < n; i++ {
		o := Op{Stage: "profile", CNN: fmt.Sprintf("cnn-%d", i), Device: "t4", Attempt: 1}
		if _, err := in.Inject(o); err != nil {
			if !IsTransient(err) {
				t.Fatalf("unexpected class: %v", err)
			}
			faulted++
		}
	}
	got := float64(faulted) / n
	if got < 0.07 || got > 0.13 {
		t.Errorf("empirical transient rate %.3f far from configured 0.1", got)
	}
}

func TestInjectPermanentDevice(t *testing.T) {
	in, err := NewInjector(&Spec{Seed: 1, PermanentDevices: []string{"m60"}})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		_, err := in.Inject(Op{Stage: "profile", CNN: "vgg-11", Device: "m60", Attempt: attempt})
		if !IsPermanent(err) {
			t.Errorf("attempt %d on a condemned device should fail permanently, got %v", attempt, err)
		}
	}
	if _, err := in.Inject(Op{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 1}); err != nil {
		t.Errorf("other devices must be unaffected, got %v", err)
	}
}

func TestInjectPermanentCellIsAttemptIndependent(t *testing.T) {
	in, err := NewInjector(&Spec{Seed: 3, PermanentRate: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Whatever a cell's fate, it must be the same on every attempt.
	for i := 0; i < 50; i++ {
		o := Op{Stage: "profile", CNN: fmt.Sprintf("cnn-%d", i), Device: "t4"}
		o.Attempt = 1
		_, e1 := in.Inject(o)
		o.Attempt = 5
		_, e5 := in.Inject(o)
		if IsPermanent(e1) != IsPermanent(e5) {
			t.Fatalf("cell %d changes permanent fate across attempts", i)
		}
	}
}

func TestInjectPreemptPoint(t *testing.T) {
	in, err := NewInjector(&Spec{Seed: 1, Preempt: []PreemptPoint{
		{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 2},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Inject(Op{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 1}); err != nil {
		t.Errorf("attempt 1 should pass, got %v", err)
	}
	if _, err := in.Inject(Op{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 2}); !IsPreempted(err) {
		t.Errorf("attempt 2 should preempt, got %v", err)
	}
	// Attempt 3 — a resumed campaign past the point — must not refire.
	if _, err := in.Inject(Op{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 3}); err != nil {
		t.Errorf("attempt 3 should pass (preemption fires once), got %v", err)
	}
	// Wildcards: empty fields match anything.
	wild, err := NewInjector(&Spec{Seed: 1, Preempt: []PreemptPoint{{Attempt: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wild.Inject(Op{Stage: "comm", CNN: "x", Device: "y", K: 2, Attempt: 1}); !IsPreempted(err) {
		t.Errorf("wildcard preempt point should match any cell, got %v", err)
	}
}

func TestInjectStragglerDelay(t *testing.T) {
	in, err := NewInjector(&Spec{Seed: 5, StragglerRate: 0.5, StragglerDelayMS: 25})
	if err != nil {
		t.Fatal(err)
	}
	sawDelay := false
	for i := 0; i < 40 && !sawDelay; i++ {
		d, err := in.Inject(Op{Stage: "profile", CNN: fmt.Sprintf("cnn-%d", i), Device: "t4", Attempt: 1})
		if err != nil {
			continue
		}
		if d != 0 {
			if d != 25*time.Millisecond {
				t.Fatalf("straggler delay = %v, want 25ms", d)
			}
			sawDelay = true
		}
	}
	if !sawDelay {
		t.Error("a 50% straggler rate produced no stragglers in 40 cells")
	}
}

func TestNilInjector(t *testing.T) {
	var in *Injector
	d, err := in.Inject(Op{Stage: "profile", CNN: "vgg-11", Device: "t4", Attempt: 1})
	if d != 0 || err != nil {
		t.Errorf("nil injector must inject nothing, got (%v, %v)", d, err)
	}
	in2, err := NewInjector(nil)
	if err != nil || in2 != nil {
		t.Errorf("NewInjector(nil) = (%v, %v), want (nil, nil)", in2, err)
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{TransientRate: -0.1},
		{TransientRate: 1.0},
		{PermanentRate: 1.5},
		{StragglerRate: -1},
		{StragglerDelayMS: -5},
		{Preempt: []PreemptPoint{{Attempt: 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d should be rejected: %+v", i, s)
		}
		if _, err := NewInjector(&s); err == nil {
			t.Errorf("NewInjector should reject spec %d", i)
		}
	}
	good := Spec{Seed: 1, TransientRate: 0.999, StragglerRate: 0.5, StragglerDelayMS: 1,
		Preempt: []PreemptPoint{{Attempt: 1}}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
}

// TestSpecValidateStragglerDelayBound pins the upper bound on
// straggler_delay_ms: a delay whose time.Duration would overflow (and
// wrap negative, which the campaign never waits for) is rejected, and
// the largest representable one is accepted with a positive delay.
func TestSpecValidateStragglerDelayBound(t *testing.T) {
	cases := []struct {
		name string
		in   string
		ok   bool
	}{
		{"overflowing delay", `{"seed":1,"straggler_rate":0.99,"straggler_delay_ms":10000000000000}`, false},
		{"one past the bound", fmt.Sprintf(`{"seed":1,"straggler_rate":0.5,"straggler_delay_ms":%d}`, maxStragglerDelayMS+1), false},
		{"the bound", fmt.Sprintf(`{"seed":1,"straggler_rate":0.5,"straggler_delay_ms":%d}`, maxStragglerDelayMS), true},
	}
	for _, c := range cases {
		s, err := ParseSpec(strings.NewReader(c.in))
		if !c.ok {
			if err == nil {
				t.Errorf("%s: accepted %s", c.name, c.in)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: rejected %s: %v", c.name, c.in, err)
		}
		if d := time.Duration(s.StragglerDelayMS) * time.Millisecond; d <= 0 {
			t.Errorf("%s: delay %v is not positive", c.name, d)
		}
	}
}

func TestSpecEnabled(t *testing.T) {
	var nilSpec *Spec
	if nilSpec.Enabled() {
		t.Error("nil spec must be disabled")
	}
	if (&Spec{Seed: 42}).Enabled() {
		t.Error("a seed alone injects nothing")
	}
	enabled := []Spec{
		{TransientRate: 0.1},
		{PermanentRate: 0.1},
		{PermanentDevices: []string{"m60"}},
		{StragglerRate: 0.1},
		{Preempt: []PreemptPoint{{Attempt: 1}}},
	}
	for i, s := range enabled {
		if !s.Enabled() {
			t.Errorf("spec %d should be enabled: %+v", i, s)
		}
	}
}

// eqExact reports a == b. Exact float equality is the contract under
// test here: a parsed spec must carry its JSON rates verbatim.
func eqExact(a, b float64) bool { return a == b }

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec(strings.NewReader(
		`{"seed": 9, "transient_rate": 0.1, "preempt": [{"stage": "profile", "attempt": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 9 || !eqExact(s.TransientRate, 0.1) || len(s.Preempt) != 1 || s.Preempt[0].Attempt != 2 {
		t.Errorf("parsed spec wrong: %+v", s)
	}
	rejected := []struct{ name, in string }{
		{"out-of-range rate", `{"transient_rate": 2}`},
		{"unknown field (typo protection)", `{"transientrate": 0.1}`},
		{"malformed JSON", `{nope`},
		{"second JSON value", `{"seed":1,"transient_rate":0.5}{"permanent_devices":["v100"]}`},
		{"trailing garbage", `{"seed":1} garbage`},
	}
	for _, c := range rejected {
		if s, err := ParseSpec(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: %q parsed to %+v, want an error", c.name, c.in, s)
		}
	}
}

// FuzzParseSpec: the fault-spec parser never panics, and any input it
// accepts is one valid JSON value whose spec validates, builds an
// injector that draws without panicking, has a non-negative straggler
// delay, and re-encodes to a fixed point. The seed corpus under testdata/fuzz/FuzzParseSpec also runs in
// the plain test step.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := ParseSpec(bytes.NewReader(in))
		if err != nil {
			return
		}
		if !json.Valid(in) {
			t.Fatalf("accepted %q, which is not valid JSON", in)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted %q, whose spec fails Validate: %v", in, err)
		}
		inj, err := NewInjector(s)
		if err != nil {
			t.Fatalf("accepted %q, whose spec builds no injector: %v", in, err)
		}
		// Only a panic fails here: any fault is a valid draw.
		_, _ = inj.Inject(Op{Stage: "comm", CNN: "vgg-11", Device: "v100", K: 2, Attempt: 1})
		// The straggler delay, computed as Inject computes it, is never
		// negative: a negative one would silently skip the wait.
		if d := time.Duration(s.StragglerDelayMS) * time.Millisecond; d < 0 {
			t.Fatalf("accepted %q, whose straggler delay %v is negative", in, d)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted %q, whose spec does not encode: %v", in, err)
		}
		again, err := ParseSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %s rejected: %v", enc, err)
		}
		if enc2, err := json.Marshal(again); err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point: %s, then %s (%v)", enc, enc2, err)
		}
	})
}
