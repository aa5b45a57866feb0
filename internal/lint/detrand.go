package lint

import (
	"go/ast"
	"go/types"
	"path"
	"strings"
)

// DetRand bans nondeterminism sources inside the simulation packages:
// global math/rand functions (process-seeded shared state), rand.New
// over anything but a seeded source constructor, and wall-clock reads
// (time.Now, time.Since). All simulation randomness must derive from
// the campaign seed via internal/det (or an explicit rand.NewSource),
// so that serial, parallel, sharded, and resumed runs produce
// byte-identical CSVs.
//
// Legitimate wall-clock uses — CLI progress timers, heartbeat
// bookkeeping, store.Meta.SavedAt — are annotated at the use site
// with //v6lint:wallclock <reason>, which is the reviewable escape
// hatch.
// Test files are exempt: tests do not feed campaign output.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "ban wall clock and unseeded randomness in simulation packages",
	Run:  runDetRand,
}

// simPackages names the packages (by final import-path element) whose
// code computes campaign output and must therefore be deterministic.
// internal/det itself (the seeded-randomness substrate) and
// internal/cli (flag plumbing for the tools) are deliberately absent;
// cmd/* and examples/* are interactive surfaces and may read the
// clock freely.
var simPackages = map[string]bool{
	"topo": true, "alexa": true, "websim": true, "measure": true,
	"core": true, "netsim": true, "bgp": true, "store": true,
	"analysis": true, "shard": true, "sweep": true, "scenario": true,
	"report": true, "stats": true, "ipam": true, "traceroute": true,
	"fault": true,
}

func runDetRand(pass *Pass) error {
	if !simPackages[path.Base(pass.Path)] {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRandNew(pass, n)
			case *ast.SelectorExpr:
				checkBannedUse(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkBannedUse flags selector uses of global math/rand functions
// and of time.Now/time.Since.
func checkBannedUse(pass *Pass, sel *ast.SelectorExpr) {
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		switch fn.Name() {
		case "New", "NewSource", "NewPCG", "NewChaCha8", "NewZipf":
			return // constructors; rand.New's argument is checked separately
		}
		pass.Reportf(sel.Pos(),
			"global %s.%s uses process-wide random state; derive randomness from the campaign seed (internal/det, or rand.New(rand.NewSource(seed)))",
			fn.Pkg().Name(), fn.Name())
	case "time":
		switch fn.Name() {
		case "Now", "Since":
			if _, ok := pass.Annotated(sel.Pos(), "wallclock"); ok {
				return
			}
			pass.Reportf(sel.Pos(),
				"time.%s in simulation package %s: wall clock breaks run-to-run determinism; derive dates from the round schedule, or annotate //v6lint:wallclock <reason> if this is a legitimate real-time use",
				fn.Name(), path.Base(pass.Path))
		}
	}
}

// checkRandNew flags rand.New calls whose argument is not a seeded
// source: either a direct *Source constructor call (rand.NewSource,
// det.NewSource) or a variable already holding a source.
func checkRandNew(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if !isPkgFunc(fn, "math/rand", "New") && !isPkgFunc(fn, "math/rand/v2", "New") {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	switch arg := unparen(call.Args[0]).(type) {
	case *ast.CallExpr:
		if inner := calleeFunc(pass.Info, arg); inner != nil && strings.Contains(inner.Name(), "Source") {
			return // rand.New(rand.NewSource(seed)), rand.New(det.NewSource(...))
		}
	case *ast.Ident, *ast.SelectorExpr:
		return // a variable holding an already-constructed (seeded) source
	}
	pass.Reportf(call.Pos(),
		"rand.New seeded from %s: construct sources via rand.NewSource or det.NewSource so the seed is explicit",
		exprString(pass.Fset, call.Args[0]))
}
