package corpus

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Config controls corpus generation. Zero values select defaults sized for
// tests; benchmarks pass larger file counts.
type Config struct {
	Files int   // total files; default 200
	Seed  int64 // RNG seed; default 1
}

// The shape of every generated corpus.
const (
	projectSize     = 8    // files per project
	sanitizeRate    = 0.65 // fraction of flows sanitized
	exploitableRate = 0.6  // fraction of unsanitized flows exploitable
	wrongParamRate  = 0.08 // fraction of flows into a benign parameter
	noiseRate       = 0.35 // fraction of pure-noise files
	// passThroughRate inserts a role-less shaping call (e.g. titlecase)
	// between source and sink on unsanitized flows. Real code rarely
	// pipes raw input straight into a sink, and these pass-through calls
	// are what the learner sometimes mislabels as sanitizers (the paper's
	// §9 failure mode and its 58% sanitizer precision).
	passThroughRate = 0.55
)

func (c Config) withDefaults() Config {
	if c.Files == 0 {
		c.Files = 200
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// File is one generated source file.
type File struct {
	Name    string
	Project string
	Source  string
}

// Flow records the ground truth of one generated source→sink flow.
type Flow struct {
	File         string
	Project      string
	SourceRep    string
	SinkRep      string
	SanitizerRep string // "" when unsanitized
	Sanitized    bool
	// Exploitable marks unsanitized flows an attacker could actually
	// exploit (the rest model the paper's "vulnerable flow, but no bug").
	Exploitable bool
	// WrongParam marks flows whose tainted value reaches a benign
	// parameter of a true sink (Table 6's "flows into wrong parameter").
	WrongParam bool
}

// Corpus is a generated dataset.
type Corpus struct {
	Files []File
	Flows []Flow
	Truth *Truth
}

// FileMap returns name → source for all files.
func (c *Corpus) FileMap() map[string]string {
	m := make(map[string]string, len(c.Files))
	for _, f := range c.Files {
		m[f.Name] = f.Source
	}
	return m
}

// Projects returns the sorted list of project names.
func (c *Corpus) Projects() []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range c.Files {
		if !seen[f.Project] {
			seen[f.Project] = true
			out = append(out, f.Project)
		}
	}
	sort.Strings(out)
	return out
}

// ProjectFiles returns name → source for one project.
func (c *Corpus) ProjectFiles(project string) map[string]string {
	m := make(map[string]string)
	for _, f := range c.Files {
		if f.Project == project {
			m[f.Name] = f.Source
		}
	}
	return m
}

// Generate produces a deterministic corpus for the configuration.
func Generate(cfg Config) *Corpus {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &generator{rng: rng, out: &Corpus{Truth: NewTruth()}}
	nProjects := (cfg.Files + projectSize - 1) / projectSize
	fileNo := 0
	for p := 0; p < nProjects && fileNo < cfg.Files; p++ {
		project := fmt.Sprintf("proj%03d", p)
		for i := 0; i < projectSize && fileNo < cfg.Files; i++ {
			var f File
			if rng.Float64() < noiseRate {
				f = g.noiseFile(project, fileNo)
			} else {
				f = g.handlerFile(project, fileNo)
			}
			g.out.Files = append(g.out.Files, f)
			fileNo++
		}
	}
	return g.out
}

type generator struct {
	rng *rand.Rand
	out *Corpus
}

func (g *generator) pick(apis []apiTemplate) apiTemplate {
	return apis[g.rng.Intn(len(apis))]
}

// handlerFile emits a Flask-style view module with 2-4 handlers.
func (g *generator) handlerFile(project string, n int) File {
	name := fmt.Sprintf("%s/views_%d.py", project, n)
	b := &fileBuilder{imports: map[string]bool{
		"from flask import Flask": true,
	}}
	b.body.WriteString("app = Flask(__name__)\n")

	handlers := 2 + g.rng.Intn(3)
	for h := 0; h < handlers; h++ {
		switch g.rng.Intn(10) {
		case 0, 1:
			g.wrapperHandler(b, name, project, h)
		case 2:
			g.classViewHandler(b, name, project, h)
		case 3:
			g.sqlChainHandler(b, name, project, h)
		case 4, 5:
			g.djangoHandler(b, name, project, h)
		default:
			g.directHandler(b, name, project, h)
		}
	}
	// View modules also carry ordinary helpers, as real ones do.
	helper := sharedHelperNames[g.rng.Intn(len(sharedHelperNames))]
	api := g.pick(noneAPIs)
	b.need(api.imports)
	fmt.Fprintf(&b.body, "\ndef %s(value, options=None):\n", helper)
	fmt.Fprintf(&b.body, "    shaped = %s\n", instantiate(api.code, "value"))
	fmt.Fprintf(&b.body, "    return shaped\n")
	return File{Name: name, Project: project, Source: b.render()}
}

type fileBuilder struct {
	imports map[string]bool
	body    strings.Builder
}

func (b *fileBuilder) need(imports []string) {
	for _, im := range imports {
		b.imports[im] = true
	}
}

func (b *fileBuilder) render() string {
	ims := make([]string, 0, len(b.imports))
	for im := range b.imports {
		ims = append(ims, im)
	}
	sort.Strings(ims)
	return strings.Join(ims, "\n") + "\n\n" + b.body.String()
}

// flowPlan rolls the dice for one source→sink flow and records its truth.
func (g *generator) flowPlan(file, project string, class vulnClass,
	src, snk apiTemplate) (san apiTemplate, flow Flow) {
	sanitized := g.rng.Float64() < sanitizeRate
	sans := sanitizersFor(class)
	if len(sans) == 0 {
		sanitized = false
	}
	flow = Flow{
		File: file, Project: project,
		SourceRep: src.rep, SinkRep: snk.rep,
		Sanitized: sanitized,
	}
	if sanitized {
		san = sans[g.rng.Intn(len(sans))]
		flow.SanitizerRep = san.rep
	} else {
		flow.Exploitable = g.rng.Float64() < exploitableRate
	}
	return san, flow
}

// directHandler is the bread-and-butter shape: source, optional sanitizer,
// noise, sink.
func (g *generator) directHandler(b *fileBuilder, file, project string, h int) {
	class := allClasses[g.rng.Intn(len(allClasses))]
	src := g.pick(sourceAPIs)
	snks := sinksFor(class)
	snk := snks[g.rng.Intn(len(snks))]

	wrongParam := g.rng.Float64() < wrongParamRate
	san, flow := g.flowPlan(file, project, class, src, snk)
	if wrongParam {
		flow.Sanitized = false
		flow.SanitizerRep = ""
		flow.Exploitable = false
		flow.WrongParam = true
	}
	g.out.Flows = append(g.out.Flows, flow)

	b.need(src.imports)
	b.need(snk.imports)
	b.body.WriteString("\n" + "@" + "app.route")
	fmt.Fprintf(&b.body, "('/h%d')\ndef handler_%d_%d():\n", h, g.rng.Intn(1<<30), h)
	fmt.Fprintf(&b.body, "    val = %s\n", instantiate(src.code, fmt.Sprintf("p%d", h)))
	if flow.Sanitized {
		b.need(san.imports)
		fmt.Fprintf(&b.body, "    val = %s\n", instantiate(san.code, "val"))
	} else if g.rng.Float64() < passThroughRate {
		g.passThrough(b, "    ", "val")
	}
	g.noiseStatements(b, 0+g.rng.Intn(3))
	if !flow.Exploitable && !flow.Sanitized && !wrongParam {
		// The paper's "vulnerable flow, but no bug": e.g. a text/plain
		// response cannot trigger XSS.
		b.body.WriteString("    content_type = 'text/plain'\n")
	}
	if wrongParam {
		fmt.Fprintf(&b.body, "    out = %s\n", instantiateWrongParam(snk.code))
	} else {
		fmt.Fprintf(&b.body, "    out = %s\n", instantiate(snk.code, "val"))
	}
	b.body.WriteString("    return out\n")
}

// wrapperHandler reads input through a local helper function, exercising
// same-file call linking.
func (g *generator) wrapperHandler(b *fileBuilder, file, project string, h int) {
	class := allClasses[g.rng.Intn(len(allClasses))]
	src := g.pick(sourceAPIs)
	snks := sinksFor(class)
	snk := snks[g.rng.Intn(len(snks))]
	san, flow := g.flowPlan(file, project, class, src, snk)
	g.out.Flows = append(g.out.Flows, flow)

	b.need(src.imports)
	b.need(snk.imports)
	fmt.Fprintf(&b.body, "\ndef read_input_%d():\n    return %s\n",
		h, instantiate(src.code, fmt.Sprintf("w%d", h)))
	b.body.WriteString("\n" + "@" + "app.route")
	fmt.Fprintf(&b.body, "('/w%d')\ndef wrapped_%d():\n", h, h)
	fmt.Fprintf(&b.body, "    data = read_input_%d()\n", h)
	if flow.Sanitized {
		b.need(san.imports)
		fmt.Fprintf(&b.body, "    data = %s\n", instantiate(san.code, "data"))
	} else if g.rng.Float64() < passThroughRate {
		g.passThrough(b, "    ", "data")
	}
	if !flow.Exploitable && !flow.Sanitized {
		b.body.WriteString("    content_type = 'text/plain'\n")
	}
	fmt.Fprintf(&b.body, "    return %s\n", instantiate(snk.code, "data"))
}

// classViewHandler emits a MethodView subclass, exercising class-context
// representations and backoff.
func (g *generator) classViewHandler(b *fileBuilder, file, project string, h int) {
	class := allClasses[g.rng.Intn(len(allClasses))]
	src := g.pick(sourceAPIs)
	snks := sinksFor(class)
	snk := snks[g.rng.Intn(len(snks))]
	san, flow := g.flowPlan(file, project, class, src, snk)
	g.out.Flows = append(g.out.Flows, flow)

	b.need(src.imports)
	b.need(snk.imports)
	b.need([]string{"from flask.views import MethodView"})
	fmt.Fprintf(&b.body, "\nclass View%d(MethodView):\n    def post(self):\n", h)
	fmt.Fprintf(&b.body, "        item = %s\n", instantiate(src.code, fmt.Sprintf("c%d", h)))
	if flow.Sanitized {
		b.need(san.imports)
		fmt.Fprintf(&b.body, "        item = %s\n", instantiate(san.code, "item"))
	} else if g.rng.Float64() < passThroughRate {
		g.passThrough(b, "        ", "item")
	}
	if !flow.Exploitable && !flow.Sanitized {
		b.body.WriteString("        content_type = 'text/plain'\n")
	}
	fmt.Fprintf(&b.body, "        return %s\n", instantiate(snk.code, "item"))
}

// djangoHandler emits a Django-style view taking the request object as a
// formal parameter; its source events are parameter-rooted, exercising
// the backoff between view_name(param request).GET.get() and the shared
// request.GET.get() representation.
func (g *generator) djangoHandler(b *fileBuilder, file, project string, h int) {
	class := allClasses[g.rng.Intn(len(allClasses))]
	src := djangoSourceAPIs[g.rng.Intn(len(djangoSourceAPIs))]
	snks := sinksFor(class)
	snk := snks[g.rng.Intn(len(snks))]
	san, flow := g.flowPlan(file, project, class, src, snk)
	g.out.Flows = append(g.out.Flows, flow)

	viewName := djangoViewNames[g.rng.Intn(len(djangoViewNames))]
	b.need(snk.imports)
	fmt.Fprintf(&b.body, "\ndef %s_%d(request):\n", viewName, h)
	fmt.Fprintf(&b.body, "    field = %s\n", instantiate(src.code, fmt.Sprintf("d%d", h)))
	if flow.Sanitized {
		b.need(san.imports)
		fmt.Fprintf(&b.body, "    field = %s\n", instantiate(san.code, "field"))
	} else if g.rng.Float64() < passThroughRate {
		g.passThrough(b, "    ", "field")
	}
	if !flow.Exploitable && !flow.Sanitized {
		b.body.WriteString("    content_type = 'text/plain'\n")
	}
	fmt.Fprintf(&b.body, "    return %s\n", instantiate(snk.code, "field"))
}

// sqlChainHandler uses the seeded MySQLdb chained-call sink.
func (g *generator) sqlChainHandler(b *fileBuilder, file, project string, h int) {
	src := g.pick(sourceAPIs)
	sanitized := g.rng.Float64() < sanitizeRate
	flow := Flow{
		File: file, Project: project,
		SourceRep: src.rep, SinkRep: "MySQLdb.connect().cursor().execute()",
		Sanitized: sanitized,
	}
	var san apiTemplate
	if sanitized {
		sans := sanitizersFor(classSQL)
		san = sans[g.rng.Intn(len(sans))]
		flow.SanitizerRep = san.rep
	} else {
		flow.Exploitable = g.rng.Float64() < exploitableRate
	}
	g.out.Flows = append(g.out.Flows, flow)

	b.need(src.imports)
	b.need([]string{"import MySQLdb"})
	b.body.WriteString("\n" + "@" + "app.route")
	fmt.Fprintf(&b.body, "('/q%d')\ndef query_%d():\n", h, h)
	fmt.Fprintf(&b.body, "    term = %s\n", instantiate(src.code, fmt.Sprintf("q%d", h)))
	if sanitized {
		b.need(san.imports)
		fmt.Fprintf(&b.body, "    term = %s\n", instantiate(san.code, "term"))
	} else if g.rng.Float64() < passThroughRate {
		g.passThrough(b, "    ", "term")
	}
	b.body.WriteString("    conn = MySQLdb.connect()\n    cur = conn.cursor()\n")
	if !flow.Exploitable && !sanitized {
		b.body.WriteString("    content_type = 'text/plain'\n")
	}
	if g.rng.Intn(2) == 0 {
		// The classic f-string injection idiom.
		b.body.WriteString("    cur.execute(f\"SELECT * FROM t WHERE k = {term}\")\n")
	} else {
		b.body.WriteString("    cur.execute('SELECT * FROM t WHERE k = ' + term)\n")
	}
	b.body.WriteString("    return cur\n")
}

// passThrough pipes a variable through a role-less shaping call.
func (g *generator) passThrough(b *fileBuilder, indent, varName string) {
	api := g.pick(noneAPIs[:5]) // only the unary shaping calls
	b.need(api.imports)
	fmt.Fprintf(&b.body, "%s%s = %s\n", indent, varName, instantiate(api.code, varName))
}

// noiseStatements sprinkles irrelevant calls into a handler body.
func (g *generator) noiseStatements(b *fileBuilder, n int) {
	for i := 0; i < n; i++ {
		api := g.pick(noneAPIs)
		b.need(api.imports)
		fmt.Fprintf(&b.body, "    aux%d = %s\n", i, instantiate(api.code, "'x'"))
	}
}

// noiseFile emits a module with no security-relevant behaviour at all.
// Helper names come from a shared pool so that, like conventionally named
// helpers in real code, their parameter events repeat across files and
// survive the learner's frequency cutoff.
func (g *generator) noiseFile(project string, n int) File {
	name := fmt.Sprintf("%s/util_%d.py", project, n)
	b := &fileBuilder{imports: map[string]bool{"import mathx": true}}
	funcs := 3 + g.rng.Intn(4)
	used := map[string]bool{}
	for i := 0; i < funcs; i++ {
		helper := sharedHelperNames[g.rng.Intn(len(sharedHelperNames))]
		if used[helper] {
			continue
		}
		used[helper] = true
		api := g.pick(noneAPIs)
		api2 := g.pick(noneAPIs)
		b.need(api.imports)
		b.need(api2.imports)
		fmt.Fprintf(&b.body, "\ndef %s(value, options=None):\n", helper)
		fmt.Fprintf(&b.body, "    total = mathx.mean([1, 2])\n")
		fmt.Fprintf(&b.body, "    shaped = %s\n", instantiate(api.code, "value"))
		fmt.Fprintf(&b.body, "    extra = %s\n", instantiate(api2.code, "shaped"))
		fmt.Fprintf(&b.body, "    if options:\n        return extra\n    return total\n")
	}
	return File{Name: name, Project: project, Source: b.render()}
}

// instantiate substitutes the template argument when the template has a
// placeholder.
func instantiate(code, arg string) string {
	if strings.Contains(code, "%s") {
		return fmt.Sprintf(code, arg)
	}
	return code
}

// instantiateWrongParam routes the tainted value into a benign keyword
// parameter of the sink, keeping the dangerous positional argument safe.
func instantiateWrongParam(code string) string {
	open := strings.Index(code, "(")
	name := code[:open]
	return name + "('-safe-', timeout=val)"
}
