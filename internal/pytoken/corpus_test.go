package pytoken_test

import (
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/pytoken"
)

// TestOperatorTablesMatchMapOracleOnCorpus holds the operator tables to
// the map oracle (DiffOperatorOracle, scanner_test.go) over the generated
// 400-file corpus.
func TestOperatorTablesMatchMapOracleOnCorpus(t *testing.T) {
	for _, f := range corpus.Generate(corpus.Config{Files: 400}).Files {
		if err := pytoken.DiffOperatorOracle(f.Name, f.Source); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKeywordTableMatchesMapOracleOnCorpus holds the keyword table to the
// map oracle (DiffKeywordOracle, scanner_test.go) on every identifier of
// the generated 400-file corpus.
func TestKeywordTableMatchesMapOracleOnCorpus(t *testing.T) {
	for _, f := range corpus.Generate(corpus.Config{Files: 400}).Files {
		if err := pytoken.DiffKeywordOracle(f.Name, f.Source); err != nil {
			t.Fatal(err)
		}
	}
}
