package rare

import (
	"context"
	"fmt"

	"cghti/internal/artifact"
	"cghti/internal/netlist"
	"cghti/internal/pipeline"
	"cghti/internal/stage"
)

// ExtractStage adapts Algorithm 1 to the pipeline stage graph. Input 0
// is the levelized netlist; the output is the *Set.
type ExtractStage struct {
	Cfg Config
}

// NewExtractStage returns the stage adapter with cfg's defaults
// applied, so the salvage accounting and cache fingerprint see the
// effective values.
func NewExtractStage(cfg Config) *ExtractStage {
	return &ExtractStage{Cfg: cfg.withDefaults()}
}

// Name implements pipeline.Stage.
func (s *ExtractStage) Name() string { return stage.RareExtract }

// Run implements pipeline.Stage. On interruption the partial set (nil
// when no batch completed) is returned alongside the error for the
// executor's salvage judgment.
func (s *ExtractStage) Run(ctx context.Context, env *pipeline.Env, inputs []pipeline.Artifact) (pipeline.Artifact, error) {
	n := inputs[0].(*netlist.Netlist)
	cfg := s.Cfg
	cfg.Progress = env.Progress(stage.RareExtract)
	return ExtractContext(ctx, n, cfg)
}

// Salvage implements pipeline.Degradable: an interrupted extraction
// with at least one simulated batch degrades to the smaller sample.
func (s *ExtractStage) Salvage(out pipeline.Artifact) (done, total int, detail string, ok bool) {
	rs, _ := out.(*Set)
	if rs == nil {
		return 0, 0, "", false
	}
	return rs.Vectors, s.Cfg.Vectors,
		fmt.Sprintf("rare set thresholded over %d of %d vectors", rs.Vectors, s.Cfg.Vectors), true
}

// Validate implements pipeline.Validator: a circuit with no rare nodes
// at the configured threshold cannot seed the compatibility graph.
func (s *ExtractStage) Validate(out pipeline.Artifact) error {
	rs := out.(*Set)
	if rs.Len() == 0 {
		return fmt.Errorf("cghti: no rare nodes at θ=%v over %d vectors", s.Cfg.Threshold, rs.Vectors)
	}
	return nil
}

// CacheConfig implements pipeline.Cacheable: exactly the knobs the
// extracted set depends on. Workers is determinism-neutral (identical
// output for any count) and excluded. The batch width and a false flag
// (inputs are never scored) follow the knobs, so these bytes, and with
// them every rare.extract.v1 fingerprint, are those of earlier
// releases, which let both be set.
func (s *ExtractStage) CacheConfig() []byte {
	e := artifact.NewEnc()
	e.String("rare.extract.v1")
	e.Int(s.Cfg.Vectors)
	e.F64(s.Cfg.Threshold)
	e.Varint(s.Cfg.Seed)
	e.Int(batchWords)
	e.Bool(false)
	return e.Finish()
}

// Encode implements pipeline.Cacheable.
func (s *ExtractStage) Encode(out pipeline.Artifact) ([]byte, error) {
	return EncodeSet(out.(*Set)), nil
}

// Decode implements pipeline.Cacheable.
func (s *ExtractStage) Decode(data []byte) (pipeline.Artifact, error) {
	return DecodeSet(data)
}

// ExtractCached is ExtractContext behind cache: a hit returns the
// stored set without simulating; a clean miss stores the fresh set.
// A nil cache, an unserializable netlist, or an interrupted extraction
// all degrade to plain ExtractContext behavior. The fingerprint recipe
// matches the pipeline executor's, so Generate runs and standalone
// extractions (htdetect, the experiment sweeps) share entries.
func ExtractCached(ctx context.Context, c *artifact.Cache, n *netlist.Netlist, cfg Config) (*Set, error) {
	if c == nil {
		return ExtractContext(ctx, n, cfg)
	}
	st := NewExtractStage(cfg)
	base := artifact.NetlistFingerprint(n)
	if base.IsZero() {
		return ExtractContext(ctx, n, cfg)
	}
	fp := artifact.Derive(stage.RareExtract, st.CacheConfig(), base)
	if data, ok := c.GetCtx(ctx, fp); ok {
		if rs, err := DecodeSet(data); err == nil {
			return rs, nil
		}
	}
	rs, err := ExtractContext(ctx, n, st.Cfg)
	if err == nil && rs != nil {
		c.PutCtx(ctx, fp, EncodeSet(rs))
	}
	return rs, err
}
