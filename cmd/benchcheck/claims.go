package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// A benchclaim annotation ties a headline number quoted in prose to the
// committed benchmark JSON it came from:
//
//	<!-- benchclaim file=BENCH_5.json path=data.speedup_vs_legacy value=1.10 tol=0.10 -->
//
// file is resolved relative to the markdown file's directory, path is a
// dot-separated walk into the JSON document (integer components index
// arrays), value is the number the prose quotes, and tol is the allowed
// relative error (default 0.02). checkClaims fails when the committed
// JSON no longer backs the quoted value, so perf prose cannot silently
// drift from the measurements — the documented numbers either move with
// a re-record or the gate flags them.

// claim is one parsed benchclaim annotation.
type claim struct {
	line  int
	file  string
	path  string
	value float64
	tol   float64
}

// checkClaims scans a markdown file for benchclaim annotations and
// verifies each against its committed JSON. It returns the number of
// claims checked; a file with zero annotations passes vacuously (the
// gate's job is to keep annotated numbers honest, not to force
// annotations everywhere).
func checkClaims(mdPath string) (int, error) {
	f, err := os.Open(mdPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()

	dir := filepath.Dir(mdPath)
	cache := make(map[string]any) // parsed JSON documents by resolved path
	checked := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 256*1024), 1024*1024)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		for rest := line; ; {
			i := strings.Index(rest, "<!-- benchclaim ")
			if i < 0 {
				break
			}
			rest = rest[i+len("<!-- benchclaim "):]
			j := strings.Index(rest, "-->")
			if j < 0 {
				return checked, fmt.Errorf("line %d: unterminated benchclaim annotation", lineNo)
			}
			c, err := parseClaim(rest[:j])
			if err != nil {
				return checked, fmt.Errorf("line %d: %v", lineNo, err)
			}
			c.line = lineNo
			rest = rest[j+len("-->"):]

			resolved := filepath.Join(dir, c.file)
			doc, ok := cache[resolved]
			if !ok {
				raw, err := os.ReadFile(resolved)
				if err != nil {
					return checked, fmt.Errorf("line %d: claim references %s: %v", lineNo, c.file, err)
				}
				if err := json.Unmarshal(raw, &doc); err != nil {
					return checked, fmt.Errorf("line %d: %s: %v", lineNo, c.file, err)
				}
				cache[resolved] = doc
			}
			got, err := lookupJSON(doc, c.path)
			if err != nil {
				return checked, fmt.Errorf("line %d: %s: %v", lineNo, c.file, err)
			}
			if err := c.verify(got); err != nil {
				return checked, fmt.Errorf("line %d: %v", lineNo, err)
			}
			checked++
		}
	}
	if err := sc.Err(); err != nil {
		return checked, err
	}
	return checked, nil
}

func parseClaim(body string) (claim, error) {
	c := claim{tol: 0.02}
	haveValue := false
	for _, field := range strings.Fields(body) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return c, fmt.Errorf("benchclaim field %q is not key=value", field)
		}
		switch k {
		case "file":
			c.file = v
		case "path":
			c.path = v
		case "value":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return c, fmt.Errorf("benchclaim value %q: %v", v, err)
			}
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return c, fmt.Errorf("benchclaim value %q must be finite", v)
			}
			c.value, haveValue = f, true
		case "tol":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0) || math.IsInf(f, 0) {
				return c, fmt.Errorf("benchclaim tol %q must be a finite non-negative number", v)
			}
			c.tol = f
		default:
			return c, fmt.Errorf("benchclaim has unknown field %q", k)
		}
	}
	if c.file == "" || c.path == "" || !haveValue {
		return c, fmt.Errorf("benchclaim needs file=, path= and value= (got file=%q path=%q)", c.file, c.path)
	}
	return c, nil
}

// lookupJSON walks a dot-separated path through decoded JSON. Integer
// components index arrays; everything else keys objects.
func lookupJSON(doc any, path string) (float64, error) {
	cur := doc
	for _, comp := range strings.Split(path, ".") {
		switch node := cur.(type) {
		case map[string]any:
			v, ok := node[comp]
			if !ok {
				return 0, fmt.Errorf("path %q: no key %q", path, comp)
			}
			cur = v
		case []any:
			idx, err := strconv.Atoi(comp)
			if err != nil || idx < 0 || idx >= len(node) {
				return 0, fmt.Errorf("path %q: %q does not index an array of %d", path, comp, len(node))
			}
			cur = node[idx]
		default:
			return 0, fmt.Errorf("path %q: %q descends into a %T", path, comp, cur)
		}
	}
	f, ok := cur.(float64)
	if !ok {
		return 0, fmt.Errorf("path %q resolves to a %T, want a number", path, cur)
	}
	return f, nil
}

func (c claim) verify(got float64) error {
	denom := math.Abs(got)
	if denom == 0 {
		denom = 1
	}
	if rel := math.Abs(c.value-got) / denom; rel > c.tol {
		return fmt.Errorf("documented claim %s:%s = %v has drifted from the committed value %v (relative error %.3f > tol %v) — update the prose or re-record the benchmark",
			c.file, c.path, c.value, got, rel, c.tol)
	}
	return nil
}
