// Package lint is a dependency-free static analyzer for this repository's
// own invariants (the ssb-lint tool). Built on the standard library's
// go/parser and go/types only — module-internal imports are type-checked
// from source against the module root, standard-library imports through
// go/importer's source importer — so go.mod stays empty of external
// dependencies.
//
// Each analyzer encodes an invariant the tree otherwise enforces only
// dynamically, by whichever test happens to exercise the breaking path:
//
//   - pinleak: every buffer-pool pin (AcquireBlock / Pool.Acquire) is
//     released on every path out of its scope.
//   - ctxloop: block loops in internal/exec and internal/colstore observe
//     context cancellation, preserving the "abandoned queries stop within
//     one 64K block" guarantee.
//   - statsdiscipline: iosim.Stats fields, including those promoted
//     through an embedding struct, are mutated only inside internal/iosim
//     (everyone else goes through its methods / Add), and no sync/atomic
//     call ever touches a plain Stats field.
//   - nologprint: internal packages never print to stdout/stderr or the
//     global logger directly; output goes through the injected loggers.
//   - guardedby: struct fields annotated "// guarded by <mu>" are accessed
//     only by functions that lock that mutex or declare "// holds <mu>".
//   - closeerr: Close errors are never silently dropped as a bare
//     statement — check them, or discard explicitly with "_ =".
//
// A diagnostic is suppressed by a directive comment on its line or the
// line above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory: a suppression is executable documentation of
// why the invariant legitimately does not apply at that site.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding in the canonical file:line: [name] message
// form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package) []Diagnostic
}

// All is the full analyzer set ssb-lint runs by default.
var All = []*Analyzer{PinLeak, CtxLoop, StatsDiscipline, NoLogPrint, GuardedBy, CloseErr}

// ByName returns the analyzers named in the comma-separated list, or All
// for an empty list.
func ByName(list string) ([]*Analyzer, error) {
	if strings.TrimSpace(list) == "" {
		return All, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	names  []string
	reason string
	pos    token.Position
}

// ignoreIndex maps filename -> line -> directives that cover that line. A
// directive covers its own line (trailing comment form) and the line
// directly below it (standalone comment form).
type ignoreIndex map[string]map[int][]*ignoreDirective

func (ix ignoreIndex) add(line int, pos token.Position, d *ignoreDirective) {
	m := ix[pos.Filename]
	if m == nil {
		m = map[int][]*ignoreDirective{}
		ix[pos.Filename] = m
	}
	m[line] = append(m[line], d)
}

func (ix ignoreIndex) covers(d Diagnostic) bool {
	for _, dir := range ix[d.Pos.Filename][d.Pos.Line] {
		for _, n := range dir.names {
			if n == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// parseIgnores indexes every //lint:ignore directive of the package and
// reports malformed ones (missing analyzer name or reason) as diagnostics:
// a suppression without a reason is itself an invariant violation.
func parseIgnores(p *Package, ix ignoreIndex) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					diags = append(diags, Diagnostic{
						Pos:      pos,
						Analyzer: "lint",
						Message:  "malformed lint:ignore directive: need \"//lint:ignore <analyzer> <reason>\"",
					})
					continue
				}
				d := &ignoreDirective{
					names:  strings.Split(fields[0], ","),
					reason: strings.Join(fields[1:], " "),
					pos:    pos,
				}
				ix.add(pos.Line, pos, d)
				ix.add(pos.Line+1, pos, d)
			}
		}
	}
	return diags
}

// Run applies the analyzers to the packages, filters suppressed findings,
// and returns the survivors sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, p := range pkgs {
		ix := ignoreIndex{}
		diags = append(diags, parseIgnores(p, ix)...)
		for _, a := range analyzers {
			for _, d := range a.Run(p) {
				if !ix.covers(d) {
					diags = append(diags, d)
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags
}

// funcDocMatches extracts every submatch of re from a function's doc
// comment group.
func commentMatches(re *regexp.Regexp, groups ...*ast.CommentGroup) []string {
	var out []string
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			for _, m := range re.FindAllStringSubmatch(c.Text, -1) {
				out = append(out, m[1])
			}
		}
	}
	return out
}
