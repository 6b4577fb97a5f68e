package ceer

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"ceer/internal/gpu"
	"ceer/internal/ops"
	"ceer/internal/regress"
)

// persistVersion guards the on-disk format. Version 2 keys op and comm
// models by stable device ID strings (version 1 used AWS family codes
// resolved through the then-closed model enum); version 3 carries each
// op model's training-time sufficient statistics alongside its
// coefficients, so calibration can continue a loaded fit incrementally.
const persistVersion = 3

// supportedVersions lists the formats load accepts, ascending. Version
// 2 files load cleanly — their op models simply lack statistics, and
// the calibrator seeds empty accumulators from the model shapes.
var supportedVersions = []int{2, persistVersion}

// versionSupported reports whether load understands the version.
func versionSupported(v int) bool {
	for _, s := range supportedVersions {
		if v == s {
			return true
		}
	}
	return false
}

// supportedVersionList renders supportedVersions for error messages.
func supportedVersionList() string {
	parts := make([]string, len(supportedVersions))
	for i, v := range supportedVersions {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ", ")
}

// Sentinel causes inside a PersistError, for errors.Is classification
// by reload paths that must report *why* a model file was rejected
// (stale format vs unknown hardware vs plain corruption).
var (
	// ErrUnsupportedVersion: the file declares a version load does not
	// understand.
	ErrUnsupportedVersion = errors.New("unsupported predictor version")
	// ErrUnknownDevice: the file references a device ID absent from
	// the loading process's gpu registry.
	ErrUnknownDevice = errors.New("unregistered device")
)

// PersistError is the typed failure of loading a serialized predictor:
// it carries the source path (empty when loading from a stream) and
// the file's declared version (0 when the JSON never decoded), so
// callers can distinguish a stale-format file from a corrupt one.
type PersistError struct {
	// Path is the file being loaded, when known.
	Path string
	// Version is the version field of the decoded file, 0 if decoding
	// never got that far.
	Version int
	// Err is the underlying cause.
	Err error
}

// Error renders the failure with its source context.
func (e *PersistError) Error() string {
	where := e.Path
	if where == "" {
		where = "predictor"
	}
	if e.Version != 0 {
		return fmt.Sprintf("ceer: loading %s (version %d): %v", where, e.Version, e.Err)
	}
	return fmt.Sprintf("ceer: loading %s: %v", where, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *PersistError) Unwrap() error { return e.Err }

// predictorJSON is the serialized form of a trained Predictor. Devices
// appear exclusively as their registry ID strings, so a saved predictor
// round-trips regardless of the order (or number) of devices registered
// by the loading process.
type predictorJSON struct {
	Version int `json:"version"`

	HeavyTypes []ops.Type           `json:"heavy_types"`
	LightTypes []ops.Type           `json:"light_types"`
	CPUTypes   []ops.Type           `json:"cpu_types"`
	ClassMeans map[ops.Type]float64 `json:"class_means"`

	OpModels []opModelJSON `json:"op_models"`

	LightMedian float64 `json:"light_median"`
	CPUMedian   float64 `json:"cpu_median"`

	CommModels []commModelJSON `json:"comm_models"`

	// Degraded lists devices trained on incomplete campaign coverage.
	// omitempty keeps fully-covered predictors byte-identical to files
	// written before partial coverage existed.
	Degraded []degradedJSON `json:"degraded,omitempty"`
}

type opModelJSON struct {
	// Device is the stable gpu registry ID (e.g. "v100").
	Device   string         `json:"gpu"`
	OpType   ops.Type       `json:"op"`
	TrainObs int            `json:"train_obs"`
	Model    *regress.Model `json:"model"`
	// Stats is the chosen model's sufficient-statistics state (v3;
	// absent in v2 files and on models that never carried statistics).
	Stats *regress.SuffStatsState `json:"stats,omitempty"`
}

type commModelJSON struct {
	Device string         `json:"gpu"`
	K      int            `json:"k"`
	Model  *regress.Model `json:"model"`
}

type degradedJSON struct {
	Device string `json:"gpu"`
	Reason string `json:"reason"`
}

// Save serializes the trained predictor as JSON. Output is
// deterministic and independent of registry registration order: op
// models are emitted in sorted (family, op type) order, comm models in
// sorted (device ID, k) order, and degraded devices sorted by ID.
func (p *Predictor) Save(w io.Writer) error {
	out := predictorJSON{
		Version:     persistVersion,
		ClassMeans:  p.Class.MeanOnThresholdGPU,
		LightMedian: p.LightMedian,
		CPUMedian:   p.CPUMedian,
	}
	for t := range p.Class.Heavy {
		out.HeavyTypes = append(out.HeavyTypes, t)
	}
	for t := range p.Class.Light {
		out.LightTypes = append(out.LightTypes, t)
	}
	for t := range p.Class.CPUOps {
		out.CPUTypes = append(out.CPUTypes, t)
	}
	sortTypes(out.HeavyTypes)
	sortTypes(out.LightTypes)
	sortTypes(out.CPUTypes)
	for _, om := range p.OpModels() {
		oj := opModelJSON{
			Device:   string(om.GPU),
			OpType:   om.OpType,
			TrainObs: om.TrainObs,
			Model:    om.Fit,
		}
		if om.Stats != nil {
			st := om.Stats.State()
			oj.Stats = &st
		}
		out.OpModels = append(out.OpModels, oj)
	}
	commIDs := make([]gpu.ID, 0, len(p.commModels))
	for m := range p.commModels {
		commIDs = append(commIDs, m)
	}
	sort.Slice(commIDs, func(i, j int) bool { return commIDs[i] < commIDs[j] })
	for _, m := range commIDs {
		ks := make([]int, 0, len(p.commModels[m]))
		for k := range p.commModels[m] {
			ks = append(ks, k)
		}
		sort.Ints(ks)
		for _, k := range ks {
			out.CommModels = append(out.CommModels, commModelJSON{
				Device: string(m), K: k, Model: p.commModels[m][k].Fit,
			})
		}
	}
	for _, m := range p.DegradedDevices() {
		out.Degraded = append(out.Degraded, degradedJSON{Device: string(m), Reason: p.degraded[m]})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Load restores a predictor previously written by Save. Every device ID
// in the file must be registered in the gpu registry of the loading
// process (load the extra-device data packages before calling Load if
// the predictor was trained with extras). Failures are *PersistError
// values carrying the decoded version when available.
func Load(r io.Reader) (*Predictor, error) {
	return load(r, "")
}

// LoadFile is Load from a file path; the path is carried in any
// resulting *PersistError.
func LoadFile(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, &PersistError{Path: path, Err: err}
	}
	//lint:ignore errdrop read-side close; there are no buffered writes to lose
	defer f.Close()
	return load(f, path)
}

func load(r io.Reader, path string) (*Predictor, error) {
	fail := func(version int, format string, args ...any) (*Predictor, error) {
		return nil, &PersistError{Path: path, Version: version, Err: fmt.Errorf(format, args...)}
	}
	var in predictorJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return fail(0, "decoding predictor: %w", err)
	}
	if !versionSupported(in.Version) {
		return fail(in.Version, "%w %d (supported: %s)",
			ErrUnsupportedVersion, in.Version, supportedVersionList())
	}
	if in.LightMedian <= 0 || in.CPUMedian <= 0 {
		return fail(in.Version, "serialized medians must be positive")
	}
	p := &Predictor{
		Class: &Classification{
			Heavy:              make(map[ops.Type]bool, len(in.HeavyTypes)),
			Light:              make(map[ops.Type]bool, len(in.LightTypes)),
			CPUOps:             make(map[ops.Type]bool, len(in.CPUTypes)),
			MeanOnThresholdGPU: in.ClassMeans,
		},
		opModels:    make(map[gpu.ID]map[ops.Type]*OpModel),
		commModels:  make(map[gpu.ID]map[int]*CommModel),
		LightMedian: in.LightMedian,
		CPUMedian:   in.CPUMedian,
	}
	for _, t := range in.HeavyTypes {
		p.Class.Heavy[t] = true
	}
	for _, t := range in.LightTypes {
		p.Class.Light[t] = true
	}
	for _, t := range in.CPUTypes {
		p.Class.CPUOps[t] = true
	}
	for _, om := range in.OpModels {
		m := gpu.ID(om.Device)
		if _, ok := gpu.Lookup(m); !ok {
			return fail(in.Version, "op model references %w %q", ErrUnknownDevice, om.Device)
		}
		if om.Model == nil {
			return fail(in.Version, "op model %s/%s missing regression", om.Device, om.OpType)
		}
		if p.opModels[m] == nil {
			p.opModels[m] = make(map[ops.Type]*OpModel)
		}
		loaded := &OpModel{
			GPU:      m,
			OpType:   om.OpType,
			TrainObs: om.TrainObs,
			Fit:      om.Model,
		}
		if om.Stats != nil {
			st, err := regress.RestoreSuffStats(*om.Stats)
			if err != nil {
				return fail(in.Version, "op model %s/%s statistics: %w", om.Device, om.OpType, err)
			}
			if err := st.CompatibleWith(om.Model); err != nil {
				return fail(in.Version, "op model %s/%s statistics: %w", om.Device, om.OpType, err)
			}
			loaded.Stats = st
		}
		p.opModels[m][om.OpType] = loaded
	}
	for _, cm := range in.CommModels {
		m := gpu.ID(cm.Device)
		if _, ok := gpu.Lookup(m); !ok {
			return fail(in.Version, "comm model references %w %q", ErrUnknownDevice, cm.Device)
		}
		if cm.Model == nil || cm.K < 1 {
			return fail(in.Version, "malformed comm model %s k=%d", cm.Device, cm.K)
		}
		if p.commModels[m] == nil {
			p.commModels[m] = make(map[int]*CommModel)
		}
		p.commModels[m][cm.K] = &CommModel{GPU: m, K: cm.K, Fit: cm.Model}
	}
	for _, d := range in.Degraded {
		m := gpu.ID(d.Device)
		if _, ok := gpu.Lookup(m); !ok {
			return fail(in.Version, "degraded entry references %w %q", ErrUnknownDevice, d.Device)
		}
		if d.Reason == "" {
			return fail(in.Version, "degraded entry for %q lacks a reason", d.Device)
		}
		p.setDegraded(m, d.Reason)
	}
	return p, nil
}
