// Package stage holds the canonical stage names shared by the
// framework pipeline, the observability layer, and the chaos
// fault-injection hooks, and Each, the one worker loop the stages run
// their independent indices on. The framework root re-exports the
// pipeline names as cghti.Stage*; internal packages import this
// package so a worker can attribute a panic or a cancellation to the
// stage it happened in without importing the framework root.
package stage

// Pipeline stages of Generate, in execution order.
const (
	Generate    = "generate" // root span wrapping the whole pipeline
	Levelize    = "levelize"
	RareExtract = "rare_extract"
	CubeGen     = "cube_gen"
	GraphEdges  = "graph_edges"
	CliqueMine  = "clique_mine"
	Insert      = "insert"
)

// Detection / fault-simulation stages (outside the Generate pipeline,
// but cancellable and chaos-instrumented the same way).
const (
	MERO     = "mero"
	NDATPG   = "ndatpg"
	Evaluate = "evaluate"
	FaultSim = "faultsim"
)
