package script_test

import (
	"fmt"
	"strings"
	"testing"

	"gamedb/internal/content"
	"gamedb/internal/script"
	"gamedb/internal/shard"
)

// stubBuiltins stands in for the world's builtin set with stateless
// stubs returning prebuilt values, so a script runs its full control
// flow without a world and two runs see identical inputs. nearby
// yields near; get yields one for every cell (claimers see every
// neighbor as a beacon).
func stubBuiltins(near script.Value) []script.Builtin {
	one := script.Int(1)
	fixed := func(name string, lo, hi int, v script.Value) script.Builtin {
		return script.Builtin{Name: name, MinArgs: lo, MaxArgs: hi,
			Fn: func([]script.Value) (script.Value, error) { return v, nil }}
	}
	return []script.Builtin{
		fixed("nearby", 2, 2, near),
		fixed("get", 2, 2, one),
		fixed("dist", 2, 2, script.Float(3.5)),
		fixed("pos_x", 1, 1, script.Float(10)),
		fixed("pos_y", 1, 1, script.Float(20)),
		fixed("tick", 0, 0, script.Int(9)),
		fixed("rand_float", 0, 0, script.Float(0.25)),
		fixed("set", 3, 3, script.Null()),
		fixed("add", 3, 3, script.Null()),
		fixed("move_toward", 4, 4, script.Null()),
		fixed("emit", 2, 3, script.Null()),
		fixed("despawn", 1, 1, script.Null()),
		fixed("spawn", 3, 3, script.Int(77)),
	}
}

// bundledPacks are the content packs the repository ships.
var bundledPacks = []string{
	shard.CascadePackXML, shard.MinglePackXML, shard.ConflictPackXML, shard.BorderWritePackXML,
}

// packSources returns every GSL program in the bundled packs: each
// behavior script, and each trigger's <when>/<do> wrapped the way the
// content compiler wraps them, with the entry point renamed to f.
func packSources(tb testing.TB) []string {
	tb.Helper()
	var out []string
	for _, x := range bundledPacks {
		p, err := content.LoadString(x)
		if err != nil {
			tb.Fatal(err)
		}
		for _, s := range p.Scripts {
			out = append(out, strings.Replace(s.Source, "fn on_tick(", "fn f(", 1))
		}
		for _, tr := range p.Triggers {
			if w := strings.TrimSpace(tr.When); w != "" {
				out = append(out, fmt.Sprintf("fn f(self, amount) { return %s; }", w))
			}
			out = append(out, fmt.Sprintf("fn f(self, amount) { %s }", tr.Do))
		}
	}
	return out
}

// TestClaimCallAllocFree pins the interpreter's frames as allocation
// free: once warmed up, running the conflict pack's claim behavior
// (nearby → for-in → if → get/set) allocates nothing per Call.
func TestClaimCallAllocFree(t *testing.T) {
	c, errs := content.LoadAndCompile(strings.NewReader(shard.ConflictPackXML))
	if len(errs) > 0 {
		t.Fatal(errs[0])
	}
	near := script.List(script.Int(2), script.Int(3), script.Int(4), script.Int(5))
	in := script.NewInterp(c.Scripts["claim"].Prog, script.Options{Builtins: stubBuiltins(near)})
	self := script.Int(1)
	if _, err := in.Call("on_tick", self); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := in.Call("on_tick", self); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("claim on_tick allocates %.1f times per Call, want 0", allocs)
	}
}

func FuzzParse(f *testing.F) {
	for _, src := range packSources(f) {
		f.Add(src)
	}
	f.Add(`fn f(n) { let s = 0; while s < n { s = s + 1; if s % 2 == 0 { continue; } } return s; }`)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := script.Parse(src)
		if err == nil {
			script.CheckRestricted(prog)
		}
	})
}

// FuzzCall runs f twice on one interpreter. Both runs must agree on
// value, error and fuel: anything a run leaves in the interpreter's
// scope pool or argument stack would show up as a difference.
func FuzzCall(f *testing.F) {
	for _, src := range packSources(f) {
		f.Add(src)
	}
	f.Add(`fn g(a) { { let a = a + 1; return a; } }
fn f(x) { let t = 0; for v in list(x, x + 1) { if v > 2 { break; } t = t + g(v); } return t + nope; }`)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := script.Parse(src)
		if err != nil {
			return
		}
		fn, ok := prog.Fns["f"]
		if !ok {
			return
		}
		args := make([]script.Value, len(fn.Params))
		for i := range args {
			args[i] = script.Int(int64(i + 1))
		}
		near := script.List(script.Int(2), script.Int(3))
		in := script.NewInterp(prog, script.Options{Fuel: 10_000, Builtins: stubBuiltins(near)})
		v1, err1 := in.Call("f", args...)
		fuel1 := in.FuelUsed()
		v2, err2 := in.Call("f", args...)
		fuel2 := in.FuelUsed()
		if v1.Kind() != v2.Kind() || v1.String() != v2.String() || fuel1 != fuel2 ||
			fmt.Sprint(err1) != fmt.Sprint(err2) {
			t.Fatalf("repeat call differs: %v/%v/%d then %v/%v/%d", v1, err1, fuel1, v2, err2, fuel2)
		}
	})
}
