package pyparse

import (
	"strings"
	"testing"

	"seldon/internal/corpus"
	"seldon/internal/pytoken"
)

// benchSource is a realistic handler-module shape.
var benchSource = strings.Repeat(`from flask import request, Response
import os

@app.route('/search')
def search(limit=10, *args, **kwargs):
    term = request.args.get('q')
    rows = [normalize(r) for r in db.query(term) if r.ok]
    try:
        payload = {'rows': rows, 'n': len(rows)}
    except ValueError as e:
        payload = {}
    return Response(render(payload))

class View(MethodView):
    def post(self):
        return self.render(request.form.get('x'))
`, 8)

func BenchmarkScan(b *testing.B) {
	b.SetBytes(int64(len(benchSource)))
	var sc pytoken.Scanner
	var toks []pytoken.Token
	for i := 0; i < b.N; i++ {
		sc.Init("bench.py", benchSource)
		toks, _ = sc.ScanAllInto(toks)
	}
}

func BenchmarkParse(b *testing.B) {
	b.SetBytes(int64(len(benchSource)))
	for i := 0; i < b.N; i++ {
		if _, err := Parse("bench.py", benchSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseCorpus parses generated corpus files the way the front
// end does, through ParseWith over one reused Scratch. One op is a pass
// over the whole set. "files" is 240 corpus files one by one; "bodies"
// is the request-size mix of the check workloads in bench/: bodies of
// 1, 2, 4, 8 and 16 concatenated files, weighted 4:3:2:1:1.
func BenchmarkParseCorpus(b *testing.B) {
	var files []string
	for _, f := range corpus.Generate(corpus.Config{Files: 240}).Files {
		files = append(files, f.Source)
	}
	var bodies []string
	for next := 0; next+16 <= len(files); {
		for _, size := range []int{1, 1, 1, 1, 2, 2, 2, 4, 4, 8, 16} {
			if next+size > len(files) {
				break
			}
			bodies = append(bodies, strings.Join(files[next:next+size], "\n"))
			next += size
		}
	}
	for _, set := range []struct {
		name string
		srcs []string
	}{{"files", files}, {"bodies", bodies}} {
		b.Run(set.name, func(b *testing.B) {
			size := 0
			for _, src := range set.srcs {
				size += len(src)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			sc := new(Scratch)
			for i := 0; i < b.N; i++ {
				for _, src := range set.srcs {
					if _, err := ParseWith(sc, "bench.py", src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
