package specio

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"seldon/internal/envelope"
	"seldon/internal/propgraph"
	"seldon/internal/spec"
)

var update = flag.Bool("update", false, "rewrite golden files")

// sampleSpec builds a specification exercising every store feature:
// multiple entries per role, an argument-restricted sink, and glob
// blacklist patterns.
func sampleSpec() *spec.Spec {
	s := spec.New()
	s.Add(propgraph.Source, "flask.request.args.get()")
	s.Add(propgraph.Source, "flask.request.files['f'].filename")
	s.Add(propgraph.Sanitizer, "werkzeug.secure_filename()")
	s.Add(propgraph.Sink, "os.system()")
	s.Add(propgraph.Sink, "webdb.runquery()")
	s.RestrictSinkArgs("webdb.runquery()", 0, 2)
	s.AddBlacklist("*.append()")
	s.AddBlacklist("builtins.len()")
	return s
}

func sampleMeta() Meta {
	return Meta{
		CorpusFingerprint: "sha256:deadbeef",
		CorpusFiles:       240,
		Events:            1234,
		SeedEntries:       5,
		LearnedEntries:    17,
		Generator:         "seldon",
	}
}

func TestRoundTrip(t *testing.T) {
	s := sampleSpec()
	var buf bytes.Buffer
	if err := Encode(&buf, s, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	got, meta, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, got) {
		t.Errorf("round trip changed the spec:\nin:  %+v\nout: %+v", s.Entries(), got.Entries())
	}
	if meta != sampleMeta() {
		t.Errorf("meta round trip: got %+v", meta)
	}
	if args := got.SinkArgsOf("webdb.runquery()"); len(args) != 2 || args[0] != 0 || args[1] != 2 {
		t.Errorf("sink args lost: %v", args)
	}
	if !got.Blacklisted("items.append()") {
		t.Error("blacklist glob lost")
	}
}

func TestByteStableAcrossSaves(t *testing.T) {
	s := sampleSpec()
	var a, b bytes.Buffer
	if err := Encode(&a, s, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if err := Encode(&b, s, sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two consecutive encodes differ")
	}
	// And across a reload: save(load(save(s))) == save(s).
	reloaded, meta, err := Decode(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var c bytes.Buffer
	if err := Encode(&c, reloaded, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Errorf("encode after reload differs:\n%s\nvs\n%s", a.String(), c.String())
	}
}

func TestGolden(t *testing.T) {
	path := filepath.Join("testdata", "store_v1.json")
	var buf bytes.Buffer
	if err := Encode(&buf, sampleSpec(), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/specio -update` to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("golden mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
	// The golden file must itself load: format changes that break old
	// stores fail here, not in production.
	s, meta, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, sampleSpec()) || meta != sampleMeta() {
		t.Error("golden file decodes to a different spec")
	}
}

func TestSaveLoadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	if err := Save(path, sampleSpec(), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	s, meta, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(s, sampleSpec()) {
		t.Error("file round trip changed the spec")
	}
	if meta.CorpusFiles != 240 {
		t.Errorf("meta lost: %+v", meta)
	}
}

// TestSaveReplacesTheFile: Save renames a new file into place rather
// than rewriting the old one, so a reader that opened the old store —
// seldond mid-reload — reads all of it, and the store is readable by all.
func TestSaveReplacesTheFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "specs.json")
	if err := Save(path, sampleSpec(), sampleMeta()); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Errorf("saved store has mode %v, want 0644", fi.Mode().Perm())
	}
	old, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := Save(path, spec.New(), Meta{}); err != nil {
		t.Fatal(err)
	}
	s, meta, err := Decode(old)
	if err != nil || !Equal(s, sampleSpec()) || meta != sampleMeta() {
		t.Errorf("the store opened before a Save reads back %v, %+v", err, meta)
	}
}

// TestSaveFailureLeavesNoTemp: a Save whose rename fails — the target is
// a non-empty directory, which no user may replace — returns the error
// and leaves no temp file beside the target.
func TestSaveFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "specs.json")
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := Save(path, sampleSpec(), sampleMeta()); err == nil {
		t.Fatal("Save over a non-empty directory succeeded")
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if envelope.IsTemp(e.Name()) {
			t.Errorf("Save left %s behind", e.Name())
		}
	}
	if len(ents) != 1 {
		t.Errorf("directory holds %v, want specs.json alone", ents)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"not json":       "o: flask.request.args.get()\n",
		"missing schema": `{"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"future schema":  `{"schema":999,"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
		"unknown field":  `{"schema":1,"bogus":true,"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`,
	}
	for name, in := range cases {
		if _, _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Decode accepted bad input", name)
		}
	}
}

// nonCanonicalStores are stores Encode cannot write that a lenient
// decoder would accept: each must be an error from its sentinel. They are
// also FuzzSpecioDecode's committed seeds.
var nonCanonicalStores = []struct {
	name, in string
	want     error
}{
	{"negative schema",
		`{"schema":-1,"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]}`, ErrSchema},
	{"bytes after the store",
		`{"schema":1,"meta":{},"sources":[],"sanitizers":[],"sinks":[],"blacklist":[]} {}`, ErrTrailing},
	{"source listed twice",
		`{"schema":1,"meta":{},"sources":["a()","a()"],"sanitizers":[],"sinks":[],"blacklist":[]}`, ErrDuplicate},
}

func TestDecodeRejectsNonCanonicalStores(t *testing.T) {
	for _, tc := range nonCanonicalStores {
		s, _, err := Decode(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s: Decode accepted a store Encode cannot write: %+v", tc.name, s.Entries())
		} else if !errors.Is(err, tc.want) {
			t.Errorf("%s: Decode = %v, want %v", tc.name, err, tc.want)
		}
	}
	// Whitespace and key order stay free: a hand-formatted store loads.
	in := "{\"sinks\": [{\"args\": [1], \"rep\": \"k()\"}], \"blacklist\": [],\n\t\"sources\": [\"a()\"], \"sanitizers\": [], \"schema\": 1}\n\n"
	s, _, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatalf("hand-formatted store: %v", err)
	}
	if len(s.Sources) != 1 || len(s.Sinks) != 1 || len(s.SinkArgsOf("k()")) != 1 {
		t.Errorf("hand-formatted store decoded to %+v", s.Entries())
	}
}

func TestFingerprint(t *testing.T) {
	a := map[string]string{"a.py": "x = 1\n", "b.py": "y = 2\n"}
	b := map[string]string{"b.py": "y = 2\n", "a.py": "x = 1\n"}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprint depends on map order")
	}
	c := map[string]string{"a.py": "x = 1\n", "b.py": "y = 3\n"}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("fingerprint ignores content")
	}
	// Length prefixing: moving a boundary must change the hash.
	d := map[string]string{"a.pyx": " = 1\n", "b.py": "y = 2\n"}
	if Fingerprint(a) == Fingerprint(d) {
		t.Error("fingerprint is boundary-ambiguous")
	}
	if !strings.HasPrefix(Fingerprint(a), "sha256:") {
		t.Error("fingerprint missing algorithm prefix")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base := sampleSpec()
	if !Equal(base, sampleSpec()) {
		t.Fatal("Equal(s, s) = false")
	}
	mutations := []func(*spec.Spec){
		func(s *spec.Spec) { s.Add(propgraph.Source, "extra.source()") },
		func(s *spec.Spec) { s.Add(propgraph.Sink, "extra.sink()") },
		func(s *spec.Spec) { s.RestrictSinkArgs("os.system()", 1) },
		func(s *spec.Spec) { s.AddBlacklist("*.extra()") },
	}
	for i, mutate := range mutations {
		m := sampleSpec()
		mutate(m)
		if Equal(base, m) {
			t.Errorf("mutation %d not detected", i)
		}
	}
}

func TestFingerprintStore(t *testing.T) {
	s := sampleSpec()
	meta := Meta{Generator: "seldon", SeedEntries: 2}
	fp, err := FingerprintStore(s, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(fp, "sha256:") {
		t.Errorf("fingerprint = %q, want sha256: prefix", fp)
	}
	again, err := FingerprintStore(sampleSpec(), meta)
	if err != nil {
		t.Fatal(err)
	}
	if again != fp {
		t.Error("fingerprint is not stable across identical stores")
	}
	changed := sampleSpec()
	changed.Add(propgraph.Source, "extra.source()")
	if cfp, _ := FingerprintStore(changed, meta); cfp == fp {
		t.Error("fingerprint ignores spec entries")
	}
	if mfp, _ := FingerprintStore(s, Meta{Generator: "other"}); mfp == fp {
		t.Error("fingerprint ignores metadata")
	}
}
