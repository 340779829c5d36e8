package compat

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"cghti/internal/gen"
	"cghti/internal/rare"
)

// goldenRareDigests and goldenGraphDigests pin Algorithms 1 and 2 on a
// fixed input set. The rare digest is the SHA-256 of rare.EncodeSet of
// the extraction, one per circuit: every worker count must reproduce
// it. The graph digests are SHA-256s of EncodeGraph
// after BuildCubes and after ConnectEdges, keyed by
// circuit/partitions/max-nodes, and every worker count must reproduce
// them too: the encoding carries the adjacency layout, the vertex
// partitions and CubesDone, so it pins what each configuration stores,
// not just the edge set. A MaxNodes cap stops right after the
// MaxNodes-th success, so CubesDone is the serial cutoff (c2670 at
// m32: 44 candidates).
var goldenRareDigests = map[string]string{
	"c2670":     "bf9127ea7eb89f775d693850699b9f23eb2319ded6e0207c23cb843721ab6baf",
	"s1423":     "1ee0495995ea7bde484fac7620b96a60a4d51089f4438fa5d741239d9a0fefa3",
	"soc:20000": "572507b39855f1093ee7423ac2a7bc261a69ffdfce461435083675f3b212b093",
}

var goldenGraphDigests = map[string][2]string{
	"c2670/p1/m0": {
		"6cb828dc0bac50b26aca06499b002b7738e203d82078db41664aedb9f1bbf86f",
		"ac2b28c6b08b66218b3f41851ca5d0b23d02106b3c1105bd98d1ebaebd896a57",
	},
	"c2670/p1/m32": {
		"84f97529add21e946f751d41eebbe03ff7bc518060403a9c0da798b349a004aa",
		"fbed3a5c25639392a963128e52a5fcc6dd2e404618b8f2ba5db85d4bcab7a435",
	},
	"c2670/p4/m0": {
		"d96469440738cfe633be349c40ab623c03cc881381ae5f97a1786d55052e78a5",
		"4d13d42bc06959c156f6614ae2d1f6808687bfb1de316598cb66899331446934",
	},
	"c2670/p4/m32": {
		"5785fff9f99c810a5e15c34fda4a18e6c5de15280a9d4a8a751e212911bfef39",
		"94280cab77b63cee626606bf641250418d419369833738ee498ee6a201ea99ae",
	},
	"c2670/p64/m0": {
		"05e734a4d2a8347e041f4051732a8c18e03d8cd172509c76cc54cb1e22556ad6",
		"57e96c4e6f746f34f2af93176086ff4f922d606e0d7117cdc32e2a49d92ca752",
	},
	"c2670/p64/m32": {
		"6c4eb6607328c1830276658cc4db80fd63ede8964ad98f8cc23573ecc4a6ee4f",
		"b155aadaf3a77e693f0ecf0981f8860f4ed015612cff91abfc8181b63992de13",
	},
	"s1423/p1/m0": {
		"f86786827d927129498484ca7cb62a1de11c6a92dc952eb9d3d209638de93961",
		"aa0dcdca7dd81fa37661211ebca9effa4e08318f53250ae49cd161031f1aeaa9",
	},
	"s1423/p1/m32": {
		"129db05d8eec5bcd878267337f2185a36b97ac53aeb6d85969011f8f6538eba8",
		"89bce22334e17551c6a7e310a2a6fd0a312051dd92e799f9d352cfb0e3fdc925",
	},
	"s1423/p4/m0": {
		"dc024dd36e85c52adc050f5466441c74aa56456421d045cb14beeadacd3f8902",
		"e32e3e84cc727f9f37ee57975eb96605470a46bef268b8cebc64a1d00ef4e6bb",
	},
	"s1423/p4/m32": {
		"031061a4f730533077deb49b07941f15ee8504c2461dffed7e507e7a5a0e18d8",
		"caa1579d492aebb3b169f96aa1d5546a9e40073e54b45efd14f1189129213c1c",
	},
	"s1423/p64/m0": {
		"09a9a1eeecc249faaec3433190f86890baabbe02bc7bba2399a42b771c548d9a",
		"57404a8de42b01942028dde99dfbd187c46fb5ddabcf3fc61be818298928f06b",
	},
	"s1423/p64/m32": {
		"49b63363808864efba56b7b8d7c10add5b763c450a942deaf5bf65eb68455b61",
		"6f8655c5c684441dc9d2171b3bf33bdc96664c6827c2f7c256b5e1a631f4d718",
	},
	"soc:20000/p1/m0": {
		"422035be765883f345ec77f6f024c2e204ff7c1d929b565e7970449c922c05e4",
		"01949fb2be17907986da194fdba1ed842c9cb29307567a6821ee689c268b8ca4",
	},
	"soc:20000/p1/m32": {
		"7035d915e11f403c718a4f160256758aa4c740fd8804088df32cbb757eaaf27c",
		"c21b7dfe9eb058734fe54af81d6d97d89721bbfbd45ada68a0b66ecfdcf731c2",
	},
	"soc:20000/p4/m0": {
		"d041177938d4fdaa006f06327a9ac01c3736f26e2eae9be09f1714b0c9824832",
		"f57c9b2ad6f9302ab5ed693946a7bf0f4312f968fa8660aa53ef00b7e62a78f7",
	},
	"soc:20000/p4/m32": {
		"53630336414165bad944386a9bd02d96001a629994188b06444883fef7b37cc4",
		"fd8d3d70628642e172555f1806bdf6dc707dd66497426eac0fd45e274579a628",
	},
	"soc:20000/p64/m0": {
		"5090722b25ec383edf123a52c59fd4a688d8e986bd7431e945aef9cbad7ac202",
		"e9a2f52395db186e7f7ebf630e6658a2065e9860854d2cc5546af993d08ba7a7",
	},
	"soc:20000/p64/m32": {
		"4e36028eaaeea608f535577c1a087adfc03afbd2b1ae57637fd70cb606cbc5d0",
		"25d01dac31d4524d416fd033e38b52fa5a54d991742cb1336394fbc497c65ce8",
	},
}

// digestCircuits are the pinned inputs: an ISCAS85 and an ISCAS89
// stand-in and a hierarchical SoC whose cones split into many
// partitions.
var digestCircuits = []string{"c2670", "s1423", "soc:20000"}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestGraphDigests runs rare extraction, cube generation and edge
// construction for every pinned circuit under Workers {1, 2} ×
// Partitions {1, 4, 64} × MaxNodes {0, 32} and compares the encoded
// artifacts with the digests recorded for each (partitions, max-nodes)
// pair, the same at both worker counts.
func TestGraphDigests(t *testing.T) {
	for _, name := range digestCircuits {
		t.Run(name, func(t *testing.T) {
			n, err := gen.Benchmark(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				rs, err := rare.Extract(n, rare.Config{Vectors: 2000, Threshold: 0.05, Seed: 3, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got, want := sha(rare.EncodeSet(rs)), goldenRareDigests[name]; got != want {
					t.Errorf("%s w%d: rare digest %s, want %s", name, workers, got, want)
				}
				for _, parts := range []int{1, 4, 64} {
					for _, maxNodes := range []int{0, 32} {
						key := fmt.Sprintf("%s/p%d/m%d", name, parts, maxNodes)
						cfg := BuildConfig{MaxBacktracks: 64, MaxNodes: maxNodes, Workers: workers, Partitions: parts}
						g, err := BuildCubes(context.Background(), n, rs, cfg)
						if err != nil {
							t.Fatal(err)
						}
						cubes := sha(EncodeGraph(g))
						if err := g.ConnectEdges(context.Background(), cfg); err != nil {
							t.Fatal(err)
						}
						got := [2]string{cubes, sha(EncodeGraph(g))}
						if want := goldenGraphDigests[key]; got != want {
							t.Errorf("%s w%d: graph digests %q, want %q", key, workers, got, want)
						}
					}
				}
			}
		})
	}
}
