package bench

// ReferenceParse exposes the reference parser to the external test
// package (stream_equiv_test.go).
var ReferenceParse = referenceParse

// ParseStreamSize, BlockSize, TestBlockSizes and ArenaDiff expose the
// block-size seam to the external test package.
var (
	ParseStreamSize = parseStream
	TestBlockSizes  = testBlockSizes
	ArenaDiff       = arenaDiff
)

const BlockSize = blockSize
