package cghti

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cghti/internal/chaos"
	"cghti/internal/compat"
	"cghti/internal/pipeline"
	"cghti/internal/trojan"
)

// goldenInsertDigests pins what trojan insertion emits: per circuit,
// payload kind and trigger polarity, a SHA-256 over every instance's
// .bench bytes plus its victim, payload gate, trigger output and added
// gates. They were recorded with the clone-per-candidate insertion
// (a full netlist copy and re-levelization per victim tried, scalar
// observability simulation); any faster insertion must reproduce them.
var goldenInsertDigests = map[string]string{
	"c2670/flip/high":      "2db7540d8ca57d9b9c91310f56837b6f3b18b9e3523450aa3d19ba4ee124a36e",
	"c2670/flip/low":       "6a113cf1d70bb1b38f7dce220a582fcc241d2485aa7f3db5f4429a7df89417ce",
	"c2670/leak/high":      "32c04cb9499b2e38a4daf8af2b269ca495fa6d6125c45cfe9660ee05f7c93515",
	"c2670/leak/low":       "dc6de3eeb18068e5f5a22dd68f23256ff733465e956bbd3b83e5638ac66f17b4",
	"c2670/force/high":     "23eba8c3173d884f3d5035e26848c2e16fb06f1f4c5b7bd5ea265c38357e9f64",
	"c2670/force/low":      "f9ef6c8bf8932393e62d4f0349b25a55eb2c37090462437508515def2821b3a6",
	"c2670/pinned":         "24868269bb04beb5362b8c19de69f27bf27f4583ec86067747d3b1b41fea99c7",
	"c5315/flip/high":      "c952a3142d595cfebfa47d15c019ad057d486fff0fba79a97f34231c992255d1",
	"c5315/flip/low":       "96aca7185d697edd70db0afbd3b0393043b9305f0132d697ddc1e176504ab45d",
	"c5315/leak/high":      "6113c44a4ea0d89ca5434bcd4bb148c2f08de3a318ad997a6a553c59ff2db93c",
	"c5315/leak/low":       "2ad1c3ef381b48ddbd686ad0dc58186fe1958c3b4ab9c21f0d54e1ba8be716a7",
	"c5315/force/high":     "122a6955d263384b487d3f74ac9e8b7c8f0108e1609490b46e11fa51a3c1238c",
	"c5315/force/low":      "445ad0287796dd9783fb7f50c81b904afad8af10d3139bdcd156a7d526bec8d9",
	"s1423/flip/high":      "d8f6db923ba0333ef6834f5f66e3b8d6be3eb7bc4c3825486bfe670a1ebd44d5",
	"s1423/flip/low":       "0fb9931561b147b5921465f3653f5628dde76c2164caf18b7390da983657b239",
	"s1423/leak/high":      "c7e0a8b6602b5cb0e0aa1c258eeeb0d56e400623946f7daeba01cc4bd396a908",
	"s1423/leak/low":       "0c009406a2fce3ac103b78cf6283c4a28915958de9259982ab5df66f70527b10",
	"s1423/force/high":     "a452e50a854e8a036dee9ad86523d96aa1050789784ff534302350daf16206cf",
	"s1423/force/low":      "865013ad8b9e3eb8dc5c59372d4406adcac3cb7103e6eed5a5d78cc0130d37f2",
	"s13207/flip/high":     "12184f7fbbd7a9bd4d9705e7fc0a2a4e6ab3200253165212f7a936cc2d7a30f6",
	"s13207/flip/low":      "17f22ad13c2bb8a58e1291db0e966f1898778eaa22e135e7e7a7a0c7cdbb20b6",
	"s13207/leak/high":     "9b698a0923612b4db855ab9c0639d5d4814be41d91be440f4656031385301480",
	"s13207/leak/low":      "7e8d01923b9c4b259a6c06385cdd28fe9c85c75fac1dfc02722ee67d655b5828",
	"s13207/force/high":    "c25187325fd687cf9383ff574c8606fa55d4135b02b023f99923e7154d367137",
	"s13207/force/low":     "fc1caef09963379f5cc702170d8815200fd9e4f6c0d12d6459c65bd4992959ec",
	"soc:20000/flip/high":  "80abcd9c4238be889eb847ac7cb7b6ee73cbc1de09c687f08cb88af3dc1b327e",
	"soc:20000/flip/low":   "eb88f984c28c6cb64efcaf2a2ecc3056d887206e97ef19fe83f29d8ed783a6d4",
	"soc:20000/leak/high":  "ee930832bd41af3f6aa0cb29a586fda188c4ca37ac8fd75dffa32ddafa9f7701",
	"soc:20000/leak/low":   "43d109db8ddc6aec356c13e50136044a82f3f039a4560a438d5df26bb6fab5c3",
	"soc:20000/force/high": "d19252180e999bdba29c45877dccbcb17bfe2f89f817b3c57eb743f03725c415",
	"soc:20000/force/low":  "70b44e06f836a1f9e5d8a3dd15870e08fef58e44e956c8332e0c77ca7835dd2e",
}

// insertDigestCircuits are the pinned inputs: ISCAS85 and ISCAS89
// stand-ins plus a partitioned SoC, so the victim search runs on
// combinational, sequential (DFF pseudo inputs and outputs) and
// scale-path cliques.
var insertDigestCircuits = []struct {
	name       string
	partitions int
}{
	{"c2670", 1}, {"c5315", 1}, {"s1423", 1}, {"s13207", 1}, {"soc:20000", 4},
}

func insertDigestConfig(partitions int) Config {
	return Config{
		RareVectors:     2000,
		RareThreshold:   0.2,
		MinTriggerNodes: 4,
		Instances:       4,
		MaxRareNodes:    64,
		MaxBacktracks:   200,
		Partitions:      partitions,
		Seed:            1,
	}
}

// hashInstance feeds one emitted instance into h.
func hashInstance(t *testing.T, h hash.Hash, n *Netlist, inst *trojan.Instance) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBench(&buf, n); err != nil {
		t.Fatal(err)
	}
	h.Write(buf.Bytes())
	fmt.Fprintf(h, "\x00%s\x00%s\x00%s\x00%s\x00",
		inst.Victim, inst.PayloadGate, inst.TriggerOut, strings.Join(inst.AddedGates, ","))
}

func checkInsertDigest(t *testing.T, key string, h hash.Hash) {
	t.Helper()
	got := fmt.Sprintf("%x", h.Sum(nil))
	if want := goldenInsertDigests[key]; got != want {
		t.Errorf("%s: insertion digest %s, want %s", key, got, want)
	}
}

// CheckInstanceOrder compares an emitted instance's order, which
// insertion derives from the base's, and every level with Levelize on a
// copy of its gates that caches no order.
func CheckInstanceOrder(t testing.TB, n *Netlist) {
	t.Helper()
	ref := &Netlist{Name: n.Name, Gates: slices.Clone(n.Gates)}
	if err := ref.Levelize(); err != nil {
		t.Fatalf("%s: reference Levelize: %v", n.Name, err)
	}
	got, err := n.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := ref.TopoOrder()
	if !slices.Equal(got, want) {
		t.Fatalf("%s: derived order differs from Levelize's", n.Name)
	}
	for i := range n.Gates {
		if n.Gates[i].Level != ref.Gates[i].Level {
			t.Fatalf("%s: gate %s level %d, Levelize %d", n.Name, n.Gates[i].Name, n.Gates[i].Level, ref.Gates[i].Level)
		}
	}
}

// TestInsertDigests runs the insertion stage on each pinned circuit for
// every payload kind and both trigger polarities (one artifact cache per
// circuit, so only the first run computes the upstream stages), plus one
// insertion with a pinned victim, and compares the emitted bytes with
// the recorded digests. Every row runs serially and on 3 workers, which
// split the 4 instances unevenly; both must match the digest, and every
// instance's order and levels must be those Levelize gives it.
func TestInsertDigests(t *testing.T) {
	payloads := []trojan.PayloadKind{trojan.PayloadFlip, trojan.PayloadLeakToOutput, trojan.PayloadForce}
	for _, c := range insertDigestCircuits {
		t.Run(c.name, func(t *testing.T) {
			n, err := Circuit(c.name)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewCache(0, 0)
			var first *Result
			for _, workers := range []int{1, 3} {
				for _, payload := range payloads {
					for _, low := range []bool{false, true} {
						cfg := insertDigestConfig(c.partitions)
						cfg.Payload, cfg.ActiveLow, cfg.Cache, cfg.Workers = payload, low, cache, workers
						res, err := Generate(n, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if len(res.Benchmarks) == 0 {
							t.Fatal("no instances emitted")
						}
						if first == nil {
							first = res
						}
						h := sha256.New()
						for _, b := range res.Benchmarks {
							hashInstance(t, h, b.Netlist, b.Instance)
							CheckInstanceOrder(t, b.Netlist)
						}
						pol := "high"
						if low {
							pol = "low"
						}
						checkInsertDigest(t, fmt.Sprintf("%s/%v/%s", c.name, payload, pol), h)
					}
				}
			}
			if c.name != "c2670" {
				return
			}
			// A pinned victim: the first flip instance's victim, reused
			// for the last clique with another seed.
			cl := first.Cliques[len(first.Cliques)-1]
			infected, inst, err := trojan.InsertInstance(n, cl.Nodes(first.Graph), cl.Cube, 7,
				trojan.InsertSpec{Seed: 99, Victim: first.Benchmarks[0].Instance.Victim})
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			hashInstance(t, h, infected, inst)
			checkInsertDigest(t, "c2670/pinned", h)
			CheckInstanceOrder(t, infected)
		})
	}
}

// instanceBytes renders inserted instances as their .bench text plus
// victim, payload gate, trigger output and added gates.
func instanceBytes(t *testing.T, ins []trojan.Inserted) [][]byte {
	t.Helper()
	out := make([][]byte, len(ins))
	for i, x := range ins {
		h := sha256.New()
		hashInstance(t, h, x.Netlist, x.Instance)
		out[i] = h.Sum(nil)
	}
	return out
}

// TestInsertSalvagePrefix: when instances fail on a worker pool, the
// insert stage returns exactly the instances before the lowest failing
// index, byte-identical to the serial run's, and its error names that
// index. Failures are made two ways: cliques emptied at fixed indices
// (deterministic), and an injected error at the insert hook's third
// hit. The hook fires once per instance, before it is inserted, so the
// error lands on whichever instance a worker claims third.
func TestInsertSalvagePrefix(t *testing.T) {
	n, err := Circuit("c2670")
	if err != nil {
		t.Fatal(err)
	}
	const instances = 6
	cfg := insertDigestConfig(1)
	cfg.Instances, cfg.MinTriggerNodes = instances, 2
	res, err := Generate(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cliques) < instances {
		t.Fatalf("mined %d cliques, want >= %d", len(res.Cliques), instances)
	}
	run := func(workers int, cliques []compat.Clique) ([]trojan.Inserted, error) {
		st := trojan.NewInsertStage(trojan.InsertSpec{Seed: cfg.Seed}, instances, workers)
		out, err := st.Run(context.Background(), &pipeline.Env{}, []pipeline.Artifact{n, res.Graph, cliques})
		ins, _ := out.([]trojan.Inserted)
		return ins, err
	}
	serial, err := run(1, res.Cliques)
	if err != nil {
		t.Fatal(err)
	}
	want := instanceBytes(t, serial)
	index := regexp.MustCompile(`^cghti: instance (\d+): `)
	checkPrefix := func(t *testing.T, got []trojan.Inserted, err error) int {
		t.Helper()
		m := index.FindStringSubmatch(errText(err))
		if m == nil {
			t.Fatalf("error %v names no instance", err)
		}
		if m[1] != strconv.Itoa(len(got)) {
			t.Fatalf("error names instance %s, but %d instances were returned", m[1], len(got))
		}
		if gb := instanceBytes(t, got); !reflect.DeepEqual(gb, want[:len(got)]) {
			t.Fatal("salvaged instances are not the serial run's prefix")
		}
		return len(got)
	}

	t.Run("emptyCliques", func(t *testing.T) {
		cliques := append([]compat.Clique(nil), res.Cliques...)
		cliques[2], cliques[4] = compat.Clique{}, compat.Clique{}
		for _, workers := range []int{1, 3} {
			got, err := run(workers, cliques)
			if k := checkPrefix(t, got, err); k != 2 {
				t.Fatalf("workers %d: %d instances salvaged, want 2", workers, k)
			}
		}
	})
	t.Run("injected", func(t *testing.T) {
		chaos.Install(chaos.Spec{Stage: StageInsert, Worker: chaos.AnyWorker, Kind: chaos.Error, OnHit: 3})
		defer chaos.Uninstall()
		got, err := run(3, res.Cliques)
		var inj *chaos.Injected
		if !errors.As(err, &inj) {
			t.Fatalf("error %v is not the injected fault", err)
		}
		checkPrefix(t, got, err)
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
