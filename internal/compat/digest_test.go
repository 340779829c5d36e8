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
// circuit/workers/partitions/max-nodes: the encoding carries the
// adjacency layout, the vertex partitions and CubesDone, so it pins
// what each configuration stores, not just the edge set. They were
// recorded with per-partition sub-netlists simulating and justifying
// each cone; any other execution strategy must reproduce them.
var goldenRareDigests = map[string]string{
	"c2670":     "bf9127ea7eb89f775d693850699b9f23eb2319ded6e0207c23cb843721ab6baf",
	"s1423":     "1ee0495995ea7bde484fac7620b96a60a4d51089f4438fa5d741239d9a0fefa3",
	"soc:20000": "572507b39855f1093ee7423ac2a7bc261a69ffdfce461435083675f3b212b093",
}

var goldenGraphDigests = map[string][2]string{
	"c2670/w1/p1/m0": {
		"6cb828dc0bac50b26aca06499b002b7738e203d82078db41664aedb9f1bbf86f",
		"ac2b28c6b08b66218b3f41851ca5d0b23d02106b3c1105bd98d1ebaebd896a57",
	},
	"c2670/w1/p1/m32": {
		"84f97529add21e946f751d41eebbe03ff7bc518060403a9c0da798b349a004aa",
		"fbed3a5c25639392a963128e52a5fcc6dd2e404618b8f2ba5db85d4bcab7a435",
	},
	"c2670/w1/p4/m0": {
		"d96469440738cfe633be349c40ab623c03cc881381ae5f97a1786d55052e78a5",
		"4d13d42bc06959c156f6614ae2d1f6808687bfb1de316598cb66899331446934",
	},
	"c2670/w1/p4/m32": {
		"493ed881eb65ea60d93af8f556d6dcbfa9607cd302fb39a604b98cf2ce017c34",
		"e3535df15d2cb0910779bb565bc1706a724249693efd18d02e8d128988335cfd",
	},
	"c2670/w1/p64/m0": {
		"05e734a4d2a8347e041f4051732a8c18e03d8cd172509c76cc54cb1e22556ad6",
		"57e96c4e6f746f34f2af93176086ff4f922d606e0d7117cdc32e2a49d92ca752",
	},
	"c2670/w1/p64/m32": {
		"22c61c7ee82f953f2a10804702fff66d924065a0f9bf6b80e09116ad9b0fe4c9",
		"dde6e20fd4ab8581faf97e1ec56d9cf3e0120fe7a0229dc7ebf98c9e33e1e5ec",
	},
	"c2670/w2/p1/m0": {
		"6cb828dc0bac50b26aca06499b002b7738e203d82078db41664aedb9f1bbf86f",
		"ac2b28c6b08b66218b3f41851ca5d0b23d02106b3c1105bd98d1ebaebd896a57",
	},
	"c2670/w2/p1/m32": {
		"ade533400ffb66210506777afff6abbecf42e41a76a6bd3341cc288f602d08b7",
		"0d4a9dcf7bb6776aca2ba2b8ce66661300248c9f9fa63b108dbf854a0e66c620",
	},
	"c2670/w2/p4/m0": {
		"d96469440738cfe633be349c40ab623c03cc881381ae5f97a1786d55052e78a5",
		"4d13d42bc06959c156f6614ae2d1f6808687bfb1de316598cb66899331446934",
	},
	"c2670/w2/p4/m32": {
		"493ed881eb65ea60d93af8f556d6dcbfa9607cd302fb39a604b98cf2ce017c34",
		"e3535df15d2cb0910779bb565bc1706a724249693efd18d02e8d128988335cfd",
	},
	"c2670/w2/p64/m0": {
		"05e734a4d2a8347e041f4051732a8c18e03d8cd172509c76cc54cb1e22556ad6",
		"57e96c4e6f746f34f2af93176086ff4f922d606e0d7117cdc32e2a49d92ca752",
	},
	"c2670/w2/p64/m32": {
		"22c61c7ee82f953f2a10804702fff66d924065a0f9bf6b80e09116ad9b0fe4c9",
		"dde6e20fd4ab8581faf97e1ec56d9cf3e0120fe7a0229dc7ebf98c9e33e1e5ec",
	},
	"s1423/w1/p1/m0": {
		"f86786827d927129498484ca7cb62a1de11c6a92dc952eb9d3d209638de93961",
		"aa0dcdca7dd81fa37661211ebca9effa4e08318f53250ae49cd161031f1aeaa9",
	},
	"s1423/w1/p1/m32": {
		"129db05d8eec5bcd878267337f2185a36b97ac53aeb6d85969011f8f6538eba8",
		"89bce22334e17551c6a7e310a2a6fd0a312051dd92e799f9d352cfb0e3fdc925",
	},
	"s1423/w1/p4/m0": {
		"dc024dd36e85c52adc050f5466441c74aa56456421d045cb14beeadacd3f8902",
		"e32e3e84cc727f9f37ee57975eb96605470a46bef268b8cebc64a1d00ef4e6bb",
	},
	"s1423/w1/p4/m32": {
		"2ac11d0e26c9ece94de68b61d034924d94dd8dd2c64eae566febb5cec63b2df7",
		"a20e1a8ce40706c4909c1661963b002bdbf5037883d7d654d8235c7bf93aab5b",
	},
	"s1423/w1/p64/m0": {
		"09a9a1eeecc249faaec3433190f86890baabbe02bc7bba2399a42b771c548d9a",
		"57404a8de42b01942028dde99dfbd187c46fb5ddabcf3fc61be818298928f06b",
	},
	"s1423/w1/p64/m32": {
		"d11c0e15caa1d97f197675efdee569272e2d1c8b0e9b70b47a92a4c242c60a0d",
		"bd44393de7666ea5268cf988871cac0f407ab9809e855df6124c83b55f877a8f",
	},
	"s1423/w2/p1/m0": {
		"f86786827d927129498484ca7cb62a1de11c6a92dc952eb9d3d209638de93961",
		"aa0dcdca7dd81fa37661211ebca9effa4e08318f53250ae49cd161031f1aeaa9",
	},
	"s1423/w2/p1/m32": {
		"deacaf4e3d42e5681a1b70a52069ecc50c60b1ad7dca85548b06dac6be1d4593",
		"d79f132f2eb3e224f1621de8a6d339ed52260c36e11d087eaef7458a9266c58d",
	},
	"s1423/w2/p4/m0": {
		"dc024dd36e85c52adc050f5466441c74aa56456421d045cb14beeadacd3f8902",
		"e32e3e84cc727f9f37ee57975eb96605470a46bef268b8cebc64a1d00ef4e6bb",
	},
	"s1423/w2/p4/m32": {
		"2ac11d0e26c9ece94de68b61d034924d94dd8dd2c64eae566febb5cec63b2df7",
		"a20e1a8ce40706c4909c1661963b002bdbf5037883d7d654d8235c7bf93aab5b",
	},
	"s1423/w2/p64/m0": {
		"09a9a1eeecc249faaec3433190f86890baabbe02bc7bba2399a42b771c548d9a",
		"57404a8de42b01942028dde99dfbd187c46fb5ddabcf3fc61be818298928f06b",
	},
	"s1423/w2/p64/m32": {
		"d11c0e15caa1d97f197675efdee569272e2d1c8b0e9b70b47a92a4c242c60a0d",
		"bd44393de7666ea5268cf988871cac0f407ab9809e855df6124c83b55f877a8f",
	},
	"soc:20000/w1/p1/m0": {
		"422035be765883f345ec77f6f024c2e204ff7c1d929b565e7970449c922c05e4",
		"01949fb2be17907986da194fdba1ed842c9cb29307567a6821ee689c268b8ca4",
	},
	"soc:20000/w1/p1/m32": {
		"7035d915e11f403c718a4f160256758aa4c740fd8804088df32cbb757eaaf27c",
		"c21b7dfe9eb058734fe54af81d6d97d89721bbfbd45ada68a0b66ecfdcf731c2",
	},
	"soc:20000/w1/p4/m0": {
		"d041177938d4fdaa006f06327a9ac01c3736f26e2eae9be09f1714b0c9824832",
		"f57c9b2ad6f9302ab5ed693946a7bf0f4312f968fa8660aa53ef00b7e62a78f7",
	},
	"soc:20000/w1/p4/m32": {
		"495434f8f973bc73d67f74ac4180315064e466520f09e3542a0265ab46d182c7",
		"0e2e87817313ee97ee35425fef6ec3229449e55122aab3ea7dca12ca6b0511b6",
	},
	"soc:20000/w1/p64/m0": {
		"5090722b25ec383edf123a52c59fd4a688d8e986bd7431e945aef9cbad7ac202",
		"e9a2f52395db186e7f7ebf630e6658a2065e9860854d2cc5546af993d08ba7a7",
	},
	"soc:20000/w1/p64/m32": {
		"53643727c25d84230400d26b9907e06f9c9f551d9985fe8828551a32a23ae16d",
		"5a0ecb16d65171ac55fc477a80a5d80fcbc539c859a63a41e33455b71ae24eea",
	},
	"soc:20000/w2/p1/m0": {
		"422035be765883f345ec77f6f024c2e204ff7c1d929b565e7970449c922c05e4",
		"01949fb2be17907986da194fdba1ed842c9cb29307567a6821ee689c268b8ca4",
	},
	"soc:20000/w2/p1/m32": {
		"444d3a98d0499a1c3a18b682ca9404afd23f3823fe1adf029b8d3fddab2c0bef",
		"93863164e1f105b14569596907e8581468f6088efb2d65f7229e5ffb6e457526",
	},
	"soc:20000/w2/p4/m0": {
		"d041177938d4fdaa006f06327a9ac01c3736f26e2eae9be09f1714b0c9824832",
		"f57c9b2ad6f9302ab5ed693946a7bf0f4312f968fa8660aa53ef00b7e62a78f7",
	},
	"soc:20000/w2/p4/m32": {
		"d5d42a7f6f20a70cc98d478b858ddbd71cc0e9fd3cd6e95598c3bf59524f2014",
		"c9bd719721b8bdfb11eb7c8d3c09d481c619371159742ba12dc8864e236df734",
	},
	"soc:20000/w2/p64/m0": {
		"5090722b25ec383edf123a52c59fd4a688d8e986bd7431e945aef9cbad7ac202",
		"e9a2f52395db186e7f7ebf630e6658a2065e9860854d2cc5546af993d08ba7a7",
	},
	"soc:20000/w2/p64/m32": {
		"f3bf08081a2d2225d0df27c22933e926ed84695e8b27afc0209b89055e227191",
		"f727d930b350332d4aa31ab89e54effafd8e02ca27a99038de6ad923d8c9272d",
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
// artifacts with the recorded digests. Workers 1 with Partitions > 1
// is the case where CubesDone advances in batch steps rather than per
// candidate.
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
						key := fmt.Sprintf("%s/w%d/p%d/m%d", name, workers, parts, maxNodes)
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
							t.Errorf("%s: graph digests %q, want %q", key, got, want)
						}
					}
				}
			}
		})
	}
}
