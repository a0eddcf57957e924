package ftl

// Tests for what the flat layout adds to the model's contract: storage
// the garbage collector never scans, a Reset that clears in place, and
// a clear refusal of a geometry whose page numbers overflow int32.
// internal/device pins how few allocations build a device.

import (
	"reflect"
	"strings"
	"testing"
)

// pointerFree reports whether a value of type t holds no pointer.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
		reflect.Interface, reflect.String, reflect.UnsafePointer:
		return false
	}
	return true
}

// TestLayoutIsPointerFree: every array the FTL allocates has
// pointer-free elements, and the FTL's other fields hold no pointer, so
// the only pointers the garbage collector meets are the FTL's own few
// slice headers.
func TestLayoutIsPointerFree(t *testing.T) {
	ft := reflect.TypeOf(FTL{})
	for i := 0; i < ft.NumField(); i++ {
		fld := ft.Field(i)
		typ := fld.Type
		if typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if !pointerFree(typ) {
			t.Errorf("FTL.%s (%s) holds pointers", fld.Name, fld.Type)
		}
	}
}

// TestResetReusesStorage: Reset on a worn device clears it in place,
// allocating nothing, and leaves it equal to a new one, field for field.
func TestResetReusesStorage(t *testing.T) {
	for _, ppb := range []int{32, 24} { // padding slots or none
		f := New(Config{Blocks: 64, PagesPerBlock: ppb, PageKB: 4, OverprovisionPct: 0.15,
			GCTriggerFreeBlocks: 3, BackgroundGCTarget: 8})
		for i := int64(0); i < int64(64*ppb)*3; i++ {
			if _, err := f.Write(i * 7 % 1200); err != nil {
				t.Fatal(err)
			}
		}
		if f.Stats().Erases == 0 {
			t.Fatalf("ppb %d: fixture wore nothing", ppb)
		}
		state, l2p := &f.state[0], &f.l2p[0]
		if allocs := testing.AllocsPerRun(1, f.Reset); allocs != 0 {
			t.Fatalf("ppb %d: Reset allocates %.0f objects, want 0", ppb, allocs)
		}
		if &f.state[0] != state || &f.l2p[0] != l2p {
			t.Fatalf("ppb %d: Reset reallocated the page map", ppb)
		}
		checkLayout(t, f)
		if !reflect.DeepEqual(f, New(f.cfg)) {
			t.Fatalf("ppb %d: FTL after Reset differs from a new one", ppb)
		}
	}
}

// TestNewRejectsInt32Overflow: a geometry with 2^31 page slots or more
// panics before allocating, naming the geometry.
func TestNewRejectsInt32Overflow(t *testing.T) {
	for _, cfg := range []Config{
		{Blocks: 1 << 19, PagesPerBlock: 4096},
		{Blocks: 1 << 19, PagesPerBlock: 3000}, // rounded up to 4096 slots
		{Blocks: 1 << 24, PagesPerBlock: 256},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "overflow int32") {
					t.Errorf("%d x %d: recovered %q, want an int32 overflow panic", cfg.Blocks, cfg.PagesPerBlock, msg)
				}
			}()
			New(cfg)
		}()
	}
}

// TestStateBytes: StateBytes is what New allocates for the FTL's
// arrays, on a power-of-two geometry and on one with padded blocks.
func TestStateBytes(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), {Blocks: 64, PagesPerBlock: 12, OverprovisionPct: 0.2}} {
		f := New(cfg)
		held := func(s any) int64 {
			v := reflect.ValueOf(s)
			return int64(v.Cap()) * int64(v.Type().Elem().Size())
		}
		got := held(f.state) + held(f.lpns) + held(f.meta) + held(f.free) + held(f.l2p)
		if want := StateBytes(cfg); got != want {
			t.Fatalf("%d blocks of %d pages: New allocated %d B, StateBytes says %d", cfg.Blocks, cfg.PagesPerBlock, got, want)
		}
	}
}
