package bench

// ReferenceParse exposes the reference parser to the external test
// package (stream_equiv_test.go).
var ReferenceParse = referenceParse
