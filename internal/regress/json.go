package regress

import (
	"encoding/json"
	"fmt"
)

// modelJSON is the serialized form of a Model.
type modelJSON struct {
	Degree      int       `json:"degree"`
	NumFeatures int       `json:"num_features"`
	Coef        []float64 `json:"coef"`
	R2          float64   `json:"r2"`
	N           int       `json:"n"`
	Scale       []float64 `json:"scale"`
}

// MarshalJSON serializes the model, including its internal feature
// normalization, so a reloaded model predicts identically.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelJSON{
		Degree:      m.Degree,
		NumFeatures: m.NumFeatures,
		Coef:        m.Coef,
		R2:          m.R2,
		N:           m.N,
		Scale:       m.scale,
	})
}

// UnmarshalJSON restores a serialized model and validates its internal
// consistency.
func (m *Model) UnmarshalJSON(data []byte) error {
	var j modelJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Degree != 1 && j.Degree != 2 {
		return fmt.Errorf("regress: serialized model has unsupported degree %d", j.Degree)
	}
	if j.NumFeatures <= 0 {
		return fmt.Errorf("regress: serialized model has %d features", j.NumFeatures)
	}
	if len(j.Scale) != j.NumFeatures {
		return fmt.Errorf("regress: scale length %d != %d features", len(j.Scale), j.NumFeatures)
	}
	wantCoef := 1 + expandedLen(j.NumFeatures, j.Degree)
	if len(j.Coef) != wantCoef {
		return fmt.Errorf("regress: coefficient length %d, want %d", len(j.Coef), wantCoef)
	}
	for i, s := range j.Scale {
		if s == 0 {
			return fmt.Errorf("regress: zero scale at feature %d", i)
		}
	}
	m.Degree = j.Degree
	m.NumFeatures = j.NumFeatures
	m.Coef = j.Coef
	m.R2 = j.R2
	m.N = j.N
	m.scale = j.Scale
	return nil
}
