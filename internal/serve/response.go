package serve

// Response document shapes. The hot endpoints (/v1/predict,
// /v1/recommend, /healthz) never instantiate these — their bodies are
// assembled by the append encoder in encode.go — but the structs are
// the normative schema: TestResponsesMatchEncodingJSON marshals them
// with encoding/json and byte-compares every hot body against them, so
// any drift between the two representations fails the suite. Cold
// endpoints (/v1/explain, /metrics) marshal them directly.

// PredictionJSON is one configuration's prediction.
type PredictionJSON struct {
	// Config is the "<k>x<family>" form ("2xP3").
	Config string `json:"config"`
	// Instance is the closest AWS offering ("p3.8xlarge").
	Instance string `json:"instance"`
	// GPU is the device ID ("v100"); K the GPU count.
	GPU string `json:"gpu"`
	K   int    `json:"k"`
	// HourlyUSD is the configuration's rental price under the request's
	// pricing scheme.
	HourlyUSD float64 `json:"hourly_usd"`
	// Iterations is D/(k·B) — Eq. (2)'s iteration count.
	Iterations int64 `json:"iterations"`
	// HeavyS..IterS decompose the predicted per-iteration seconds.
	HeavyS float64 `json:"heavy_s"`
	LightS float64 `json:"light_s"`
	CPUS   float64 `json:"cpu_s"`
	CommS  float64 `json:"comm_s"`
	IterS  float64 `json:"iter_s"`
	// TotalS and CostUSD are the epoch time T and cost C = T × price.
	TotalS  float64 `json:"total_s"`
	CostUSD float64 `json:"cost_usd"`
	// UnseenHeavy lists heavy op types predicted without a trained
	// model (degraded prediction).
	UnseenHeavy []string `json:"unseen_heavy,omitempty"`
	// Degraded explains partial training coverage of the device. A
	// sweep predicts a degraded device that lacks the communication
	// model for k without the comm term, as Recommend does.
	Degraded string `json:"degraded,omitempty"`
}

// PredictResponse is the /v1/predict document.
type PredictResponse struct {
	CNN         string           `json:"cnn"`
	Batch       int64            `json:"batch"`
	Samples     int64            `json:"samples"`
	Pricing     string           `json:"pricing"`
	Predictions []PredictionJSON `json:"predictions"`
}

// CandidateJSON is one evaluated configuration of a recommendation.
type CandidateJSON struct {
	PredictionJSON
	// Feasible reports whether every constraint accepted the candidate.
	Feasible bool `json:"feasible"`
	// Score is the objective value (meaningful only when feasible).
	Score float64 `json:"score"`
	// Degraded explains partial training coverage of the device. It
	// shadows PredictionJSON.Degraded, so a candidate's degraded field
	// follows score.
	Degraded string `json:"degraded,omitempty"`
}

// RecommendResponse is the /v1/recommend document.
type RecommendResponse struct {
	CNN        string          `json:"cnn"`
	Objective  string          `json:"objective"`
	Batch      int64           `json:"batch"`
	Samples    int64           `json:"samples"`
	Pricing    string          `json:"pricing"`
	Best       CandidateJSON   `json:"best"`
	Candidates []CandidateJSON `json:"candidates"`
}

// HealthzResponse is the /healthz document.
type HealthzResponse struct {
	// Status is the health state machine value: "starting" while New
	// builds tables and replays the journal, "healthy" when serving,
	// "degraded" while the panic breaker is tripped (still serving;
	// calibration shed), "draining" once Shutdown has begun.
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Models     int    `json:"models"`
	Devices    int    `json:"devices"`
	Batch      int64  `json:"batch"`
	MaxK       int    `json:"max_k"`
	// Panics counts recovered handler panics; ReloadRejected rejected
	// model swaps; DriftedCells the calibrator cells currently flagged
	// drifted (0 without calibration).
	Panics         uint64 `json:"panics"`
	ReloadRejected uint64 `json:"reload_rejected"`
	DriftedCells   int64  `json:"drifted_cells"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ContributionJSON attributes a slice of a predicted iteration to one
// op type (/v1/explain).
type ContributionJSON struct {
	Op      string  `json:"op"`
	Class   string  `json:"class"`
	Count   int     `json:"count"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// ExplainResponse is the /v1/explain document. Degraded explains
// partial training coverage of the device; as in a sweep, a degraded
// device that lacks the communication model for k is explained without
// the comm term.
type ExplainResponse struct {
	CNN           string             `json:"cnn"`
	GPU           string             `json:"gpu"`
	K             int                `json:"k"`
	HeavyS        float64            `json:"heavy_s"`
	LightS        float64            `json:"light_s"`
	CPUS          float64            `json:"cpu_s"`
	CommS         float64            `json:"comm_s"`
	IterS         float64            `json:"iter_s"`
	CommShare     float64            `json:"comm_share"`
	UnseenHeavy   []string           `json:"unseen_heavy,omitempty"`
	Degraded      string             `json:"degraded,omitempty"`
	Contributions []ContributionJSON `json:"contributions"`
}

// ReloadResponse is the /admin/reload document. Status is "reloaded"
// (200) or "rejected" (422); a rejection carries the typed cause
// ("load", "version", "registry", "compile", "probe") and the
// underlying error, and Generation is the still-serving old generation.
type ReloadResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Cause      string `json:"cause,omitempty"`
	Error      string `json:"error,omitempty"`
}

// ObserveResponse is the POST /v1/observe document: what this batch of
// observations did to the calibrator.
type ObserveResponse struct {
	Status string `json:"status"`
	// Accepted observations were journaled and folded in; Applied of
	// those updated a trained cell, Skipped matched nothing trainable.
	Accepted int `json:"accepted"`
	Applied  int `json:"applied"`
	Skipped  int `json:"skipped"`
	// Refits counts refit rounds this batch triggered; Generation is
	// the serving generation after any validated swap.
	Refits     int    `json:"refits"`
	Generation uint64 `json:"generation"`
	// Journaled reports whether a write-ahead journal is persisting the
	// stream.
	Journaled bool `json:"journaled"`
}
