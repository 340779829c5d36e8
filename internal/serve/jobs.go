package serve

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cghti"
	"cghti/internal/artifact"
	"cghti/internal/detect"
	"cghti/internal/obs"
	"cghti/internal/rare"
	"cghti/internal/trojan"
)

// jobTimeout resolves a request's timeout_ms against the server cap: a
// request may shorten its deadline but never extend it past
// Config.JobTimeout.
func (s *Server) jobTimeout(ms int64) time.Duration {
	d := s.cfg.JobTimeout
	if ms > 0 {
		if req := time.Duration(ms) * time.Millisecond; req < d {
			d = req
		}
	}
	return d
}

// GenerateRequest submits one trojan-generation job: a .bench netlist
// plus the pipeline knobs worth exposing over the wire. Zero values
// select the library defaults.
type GenerateRequest struct {
	// Bench is the golden netlist in .bench text form.
	Bench string `json:"bench"`
	// Name names the circuit (default "job").
	Name string `json:"name,omitempty"`
	// Seed makes the pipeline deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Instances is the number of infected netlists to emit.
	Instances int `json:"instances,omitempty"`
	// MinTriggerNodes is the paper's q.
	MinTriggerNodes int `json:"min_trigger_nodes,omitempty"`
	// RareVectors is the Algorithm 1 vector count |V|.
	RareVectors int `json:"rare_vectors,omitempty"`
	// RareThreshold is θ_RN as a fraction.
	RareThreshold float64 `json:"rare_threshold,omitempty"`
	// Payload selects the trojan effect: "flip", "leak" or "force".
	Payload string `json:"payload,omitempty"`
	// ActiveLow makes the trigger fire on 0.
	ActiveLow bool `json:"active_low,omitempty"`
	// TimeoutMS shortens the job deadline below the server cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// GeneratedBench is one emitted infected netlist.
type GeneratedBench struct {
	Name         string `json:"name"`
	Bench        string `json:"bench"`
	Trigger      string `json:"trigger"`
	Activation   uint8  `json:"activation"`
	TriggerNodes int    `json:"trigger_nodes"`
	Payload      string `json:"payload"`
	Victim       string `json:"victim"`
}

// GenerateResult is a generate job's outcome.
type GenerateResult struct {
	Circuit      string           `json:"circuit"`
	RareNodes    int              `json:"rare_nodes"`
	Cliques      int              `json:"cliques"`
	CachedStages []string         `json:"cached_stages,omitempty"`
	Benchmarks   []GeneratedBench `json:"benchmarks"`
}

func parsePayload(s string) (trojan.PayloadKind, error) {
	switch s {
	case "", "flip":
		return trojan.PayloadFlip, nil
	case "leak":
		return trojan.PayloadLeakToOutput, nil
	case "force":
		return trojan.PayloadForce, nil
	}
	return 0, fmt.Errorf("unknown payload %q (want flip, leak or force)", s)
}

// generateJob validates the request (netlist parse, payload name,
// config sanity) and returns the run closure plus the netlist's content
// fingerprint — the fleet's sharding key, so identical submissions land
// on one owner however they enter the fleet. Validation errors are the
// submitter's 400, not a failed job. The sink receives the pipeline's
// stage progress events — wired to the job's SSE feed by runJob.
func (s *Server) generateJob(req GenerateRequest) (runFunc, artifact.Fingerprint, error) {
	name := req.Name
	if name == "" {
		name = "job"
	}
	n, err := cghti.ParseBenchString(req.Bench, name)
	if err != nil {
		return nil, artifact.Fingerprint{}, err
	}
	payload, err := parsePayload(req.Payload)
	if err != nil {
		return nil, artifact.Fingerprint{}, err
	}
	cfg := cghti.Config{
		RareVectors:     req.RareVectors,
		RareThreshold:   req.RareThreshold,
		MinTriggerNodes: req.MinTriggerNodes,
		Instances:       req.Instances,
		Payload:         payload,
		ActiveLow:       req.ActiveLow,
		Seed:            req.Seed,
		Workers:         s.cfg.JobWorkers,
		Cache:           s.cfg.Cache,
	}
	if err := cfg.Validate(); err != nil {
		return nil, artifact.Fingerprint{}, err
	}
	timeout := s.jobTimeout(req.TimeoutMS)
	run := func(ctx context.Context, reg *obs.Registry, trace *obs.Trace, sink obs.Sink) (any, error) {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		runCfg := cfg
		runCfg.Metrics = reg
		runCfg.Trace = trace
		runCfg.Progress = sink
		res, err := cghti.GenerateContext(ctx, n, runCfg)
		if err != nil {
			return nil, err
		}
		out := &GenerateResult{
			Circuit:      res.Base.Name,
			RareNodes:    res.RareSet.Len(),
			Cliques:      len(res.Cliques),
			CachedStages: res.CachedStages,
		}
		for _, b := range res.Benchmarks {
			var sb strings.Builder
			if err := cghti.WriteBench(&sb, b.Netlist); err != nil {
				return nil, err
			}
			out.Benchmarks = append(out.Benchmarks, GeneratedBench{
				Name:         b.Netlist.Name,
				Bench:        sb.String(),
				Trigger:      b.Instance.TriggerOut,
				Activation:   b.Instance.Trigger.Spec.ActivationValue(),
				TriggerNodes: len(b.Clique.Vertices),
				Payload:      b.Instance.Payload.String(),
				Victim:       b.Instance.Victim,
			})
		}
		return out, nil
	}
	return run, artifact.NetlistFingerprint(n), nil
}

// DetectRequest submits one detection-evaluation job: a golden/infected
// netlist pair and the scheme to run.
type DetectRequest struct {
	// Golden and Infected are .bench netlists.
	Golden   string `json:"golden"`
	Infected string `json:"infected"`
	// Trigger names the trigger net in the infected netlist.
	Trigger string `json:"trigger"`
	// Activation is the firing value (default 1).
	Activation *int `json:"activation,omitempty"`
	// Scheme is "random", "mero" or "ndatpg" (default "random").
	Scheme string `json:"scheme,omitempty"`
	// Patterns is the random-scheme budget (default 100000).
	Patterns int `json:"patterns,omitempty"`
	// N is MERO's / ND-ATPG's N-detect parameter.
	N int `json:"n,omitempty"`
	// Pool is MERO's random pool size.
	Pool int `json:"pool,omitempty"`
	// Theta and Vectors parameterize the rare-node extraction MERO and
	// ND-ATPG start from.
	Theta   float64 `json:"theta,omitempty"`
	Vectors int     `json:"vectors,omitempty"`
	// Seed drives every random draw.
	Seed int64 `json:"seed,omitempty"`
	// TimeoutMS shortens the job deadline below the server cap.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DetectResult is a detect job's outcome.
type DetectResult struct {
	Scheme       string `json:"scheme"`
	Vectors      int    `json:"vectors"`
	Triggered    bool   `json:"triggered"`
	FirstTrigger int    `json:"first_trigger"`
	Detected     bool   `json:"detected"`
	FirstDetect  int    `json:"first_detect"`
	RareNodes    int    `json:"rare_nodes,omitempty"`
}

// validate rejects out-of-range parameters at submit time, naming the
// field; zero keeps meaning "default".
func (r DetectRequest) validate() error {
	if r.Theta < 0 || r.Theta >= 1 {
		return fmt.Errorf("theta %v must be a fraction in [0, 1)", r.Theta)
	}
	if r.Activation != nil && *r.Activation != 0 && *r.Activation != 1 {
		return fmt.Errorf("activation %d must be 0 or 1", *r.Activation)
	}
	names := [...]string{"patterns", "n", "pool", "vectors"}
	for i, v := range [...]int{r.Patterns, r.N, r.Pool, r.Vectors} {
		if v < 0 {
			return fmt.Errorf("%s %d must not be negative", names[i], v)
		}
	}
	return nil
}

// detectJob validates the request and returns the run closure plus the
// golden netlist's content fingerprint (the fleet's sharding key, like
// generateJob's). Detect phases are coarser than the generate
// pipeline's, so the closure emits its own start/end events per phase
// into the sink (rare extraction, then the scheme run) — the SSE stream
// shows the same shape either way.
func (s *Server) detectJob(req DetectRequest) (runFunc, artifact.Fingerprint, error) {
	if err := req.validate(); err != nil {
		return nil, artifact.Fingerprint{}, err
	}
	golden, err := cghti.ParseBenchString(req.Golden, "golden")
	if err != nil {
		return nil, artifact.Fingerprint{}, fmt.Errorf("golden: %w", err)
	}
	infected, err := cghti.ParseBenchString(req.Infected, "infected")
	if err != nil {
		return nil, artifact.Fingerprint{}, fmt.Errorf("infected: %w", err)
	}
	trigID, ok := infected.Lookup(req.Trigger)
	if !ok {
		return nil, artifact.Fingerprint{}, fmt.Errorf("trigger net %q not found in infected netlist", req.Trigger)
	}
	scheme := req.Scheme
	if scheme == "" {
		scheme = "random"
	}
	switch scheme {
	case "random", "mero", "ndatpg":
	default:
		return nil, artifact.Fingerprint{}, fmt.Errorf("unknown scheme %q (want random, mero or ndatpg)", scheme)
	}
	activation := uint8(1)
	if req.Activation != nil {
		activation = uint8(*req.Activation)
	}
	patterns := req.Patterns
	if patterns <= 0 {
		patterns = 100000
	}
	timeout := s.jobTimeout(req.TimeoutMS)
	tgt := detect.Target{Golden: golden, Infected: infected, TriggerOut: trigID, Activation: activation}

	run := func(ctx context.Context, reg *obs.Registry, trace *obs.Trace, sink obs.Sink) (any, error) {
		ctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		var rs *rare.Set
		var err error
		if scheme == "mero" || scheme == "ndatpg" {
			sp := trace.Start("rare_extract")
			obs.Emit(sink, obs.Event{Stage: "rare_extract", Kind: obs.StageStart})
			rs, err = rare.ExtractCached(ctx, s.cfg.Cache, golden, rare.Config{
				Vectors:   req.Vectors,
				Threshold: req.Theta,
				Seed:      req.Seed,
				Workers:   s.cfg.JobWorkers,
			})
			if err != nil {
				sp.Abort()
				obs.Emit(sink, obs.Event{Stage: "rare_extract", Kind: obs.StageAbort, Elapsed: sp.Duration()})
				return nil, err
			}
			sp.End()
			obs.Emit(sink, obs.Event{Stage: "rare_extract", Kind: obs.StageEnd, Elapsed: sp.Duration()})
		}
		sp := trace.Start(scheme)
		obs.Emit(sink, obs.Event{Stage: scheme, Kind: obs.StageStart})
		var ts *detect.TestSet
		switch scheme {
		case "random":
			ts = detect.RandomTestSetContext(ctx, golden, patterns, req.Seed)
		case "mero":
			ts, err = detect.MEROContext(ctx, golden, rs, detect.MEROConfig{
				N: req.N, RandomVectors: req.Pool, Seed: req.Seed, Workers: s.cfg.JobWorkers,
			})
		case "ndatpg":
			ts, err = detect.NDATPGContext(ctx, golden, rs, detect.NDATPGConfig{
				N: req.N, Seed: req.Seed, Workers: s.cfg.JobWorkers,
			})
		}
		if err != nil {
			sp.Abort()
			obs.Emit(sink, obs.Event{Stage: scheme, Kind: obs.StageAbort, Elapsed: sp.Duration()})
			return nil, err
		}
		out, err := detect.EvaluateContext(ctx, tgt, ts, detect.EvalConfig{Workers: s.cfg.JobWorkers})
		if err != nil {
			sp.Abort()
			obs.Emit(sink, obs.Event{Stage: scheme, Kind: obs.StageAbort, Elapsed: sp.Duration()})
			return nil, err
		}
		sp.End()
		obs.Emit(sink, obs.Event{Stage: scheme, Kind: obs.StageEnd, Elapsed: sp.Duration()})
		res := &DetectResult{
			Scheme:       scheme,
			Vectors:      ts.Len(),
			Triggered:    out.Triggered,
			FirstTrigger: out.FirstTrigger,
			Detected:     out.Detected,
			FirstDetect:  out.FirstDetect,
		}
		if rs != nil {
			res.RareNodes = rs.Len()
		}
		return res, nil
	}
	return run, artifact.NetlistFingerprint(golden), nil
}
