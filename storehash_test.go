package seldon_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"seldon/internal/core"
	"seldon/internal/corpus"
	"seldon/internal/specio"
)

// learnedStoreHashes are the sha256 of what `seldon learn -generate N -o F`
// writes to F: the 600-file store as recorded at PR 18's commit, the
// 6000-file one at PR 27's (the solver's step schedule and stopping rule
// changed what is learned there). A change that is not meant to change what
// is learned leaves them alone; one that is re-records them and says so in
// CHANGES.md.
var learnedStoreHashes = map[int]string{
	600:  "359cbcb09c4082f1116041b081d2434d0733296cabfa64970d3a453cd6144636",
	6000: "4a6f1c090b8914c60c1963b4db20fdef692e1a76bb1a960b435fe0bcf9b578c1",
}

// TestLearnedStoreHash is "cmp-equal to the parent's store" as a test: the
// generated corpus learned end to end, at the default worker count and at
// one, must encode to the recorded bytes. Every layer from the lexer to the
// selection threshold is under it, so it names no culprit; it only says
// that what is learned moved.
func TestLearnedStoreHash(t *testing.T) {
	seed := corpus.ExperimentSeed()
	for _, n := range []int{600, 6000} {
		files := corpus.Generate(corpus.Config{Files: n, Seed: 1}).FileMap()
		for _, workers := range []int{0, 1} {
			t.Run(fmt.Sprintf("files=%d/workers=%d", n, workers), func(t *testing.T) {
				res := core.LearnFromSources(files, seed, core.Config{Workers: workers})
				merged := res.LearnedSpec(seed)
				// The provenance block cmd/seldon writes: the hash is the file's.
				var store bytes.Buffer
				if err := specio.Encode(&store, merged, specio.Meta{
					CorpusFingerprint: specio.Fingerprint(files),
					CorpusFiles:       n,
					Events:            res.Graph.ComputeStats().Events,
					SeedEntries:       seed.Len(),
					LearnedEntries:    merged.Len() - seed.Len(),
					Generator:         "seldon",
				}); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(store.Bytes())
				if got := hex.EncodeToString(sum[:]); got != learnedStoreHashes[n] {
					t.Errorf("learned store hashes to %s, recorded %s", got, learnedStoreHashes[n])
				}
			})
		}
	}
}
