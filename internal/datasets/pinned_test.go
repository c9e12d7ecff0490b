package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"llm4em/internal/entity"
)

// pairsDigest hashes the pair ID, the label and every attribute
// name/value of both records, each field length-prefixed so no two
// distinct pair lists share a byte stream.
func pairsDigest(pairs []entity.Pair) string {
	h := sha256.New()
	for _, p := range pairs {
		writeField(h, p.ID)
		writeField(h, boolLabel(p.Match))
		for _, r := range []entity.Record{p.A, p.B} {
			writeField(h, r.ID)
			for _, a := range r.Attrs {
				writeField(h, a.Name)
				writeField(h, a.Value)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// TestGenerationPinned pins the generated benchmarks byte for byte:
// one digest per split of every dataset plus the grouped fixtures of
// the product datasets. A change to a generator, a config or the RNG
// draw order moves a digest; every paper table and bench corpus is
// built from these pairs.
func TestGenerationPinned(t *testing.T) {
	want := map[string]string{
		"ab/grouped":  "46584b64c61f4707b22c13fd4bdc0b8f05bc6f40b47fbf84110170164445d687",
		"ab/test":     "ae72ad19484c2d4c8eec8199ba3dbd125953e221919c871090ae89a10d014ada",
		"ab/train":    "183e447bf44f9771aafad55b4d4486c75df207557986996787f8493efbd8a870",
		"ab/val":      "53f4f19d69f07131053f7581eae77a369b22ec94bc595f0d788148dd0dcc67ba",
		"ag/test":     "e6de8fbc2c70e290db44d26c896c04a097c656bcc689767b2f39b257188ec558",
		"ag/train":    "441bac59dde5103c9692a8c80945f92a8fb59a338e9cb9d96d2dcb1bd267d135",
		"ag/val":      "0d234f58249ee5cbfeb5758cc9c0fc61c94ba1b772a696778998c80064be0d40",
		"da/test":     "a8d5d1f1daf58b0aa60ada9025c15f05bc4ae39ec35856a3547125b9fc06f0ce",
		"da/train":    "ca7b26916be8e45990e7e02c54dc7109c1f403c99a944219a8922bbedd518c0e",
		"da/val":      "4c45616644ad390a06e73eae230d0c63f893b643de6a6d76df4cfac6e6c17d0c",
		"ds/test":     "9e87d48fc799f836e56dcfa6fea03c7965eae9d0574bf59e6c5b534c244afc15",
		"ds/train":    "203f284810a0ac773be1a025007960296bbe57bf8e4da58a84fd7acd2a5b6e41",
		"ds/val":      "64b8e88290e26569117a0656f19204a7cf5ea1f184739b0fdf7e9787a1ba99aa",
		"wa/grouped":  "225997762c41fd048f5156842091ca3e6215a61e9161cb7d27e94f47532f65b7",
		"wa/test":     "9732881ee4635b357b95bce0f3b48363c55335817b6e39608e413e4186c7ed70",
		"wa/train":    "b9dd81fb583f965a6dc7101d01b37dc36c2a012947a5401acc3bd18d494ad850",
		"wa/val":      "3cab9c14a5c57cf0ab5f722630c3a4372e7ddcbaa6887d50d8bbf18c16bc294f",
		"wdc/grouped": "be1db089c9bc3a3c68ef055879b6d09cbd471afa058d97e53dfda09b677b7c51",
		"wdc/test":    "78650eb4fa1bdce4093310de8a2e1a2011c530aaa45131377a53cb11d063f03b",
		"wdc/train":   "048d68dde2c60d4824927ca987a2f10fe73a2e54c6af593273b1e4f6e53531eb",
		"wdc/val":     "8cc0216a8e2bdb327fde9416d3ebc6c6622394f021845efabcfdec25008ceee4",
	}
	got := map[string]string{}
	for _, key := range Keys() {
		d := MustLoad(key)
		got[key+"/train"] = pairsDigest(d.Train)
		got[key+"/val"] = pairsDigest(d.Val)
		got[key+"/test"] = pairsDigest(d.Test)
	}
	for _, key := range []string{"wdc", "ab", "wa"} {
		pairs, err := GroupedPairs(key, "seed", 40, 5)
		if err != nil {
			t.Fatal(err)
		}
		got[key+"/grouped"] = pairsDigest(pairs)
	}
	if len(got) != len(want) {
		t.Errorf("computed %d digests, pinned %d", len(got), len(want))
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%s digest = %s, want %s", k, g, want[k])
		}
	}
}
