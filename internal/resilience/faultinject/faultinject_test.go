package faultinject

import (
	"errors"
	"testing"
	"time"
)

func TestNilInjectorIsInert(t *testing.T) {
	var inj *Injector
	if inj.Fire("x") || inj.Err("x") != nil || inj.Sleep("x") || inj.Fired("x") != 0 {
		t.Fatal("nil injector fired")
	}
}

func TestUnarmedPointNeverFires(t *testing.T) {
	inj := New()
	for i := 0; i < 5; i++ {
		if inj.Fire("never-armed") {
			t.Fatal("unarmed point fired")
		}
	}
}

func TestArmEveryHit(t *testing.T) {
	inj := New()
	inj.Arm("p")
	for i := 0; i < 3; i++ {
		if !errors.Is(inj.Err("p"), ErrInjected) {
			t.Fatalf("hit %d did not fire", i+1)
		}
	}
	if inj.Fired("p") != 3 {
		t.Fatalf("fired %d, want 3", inj.Fired("p"))
	}
}

func TestArmSpecificHits(t *testing.T) {
	inj := New()
	inj.Arm("p", 2, 4)
	var fires []bool
	for i := 0; i < 5; i++ {
		fires = append(fires, inj.Fire("p"))
	}
	want := []bool{false, true, false, true, false}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("hit %d: fired=%v, want %v", i+1, fires[i], want[i])
		}
	}
	if inj.Fired("p") != 2 {
		t.Fatalf("fired %d, want 2", inj.Fired("p"))
	}
}

func TestArmErrCarriesCustomError(t *testing.T) {
	inj := New()
	custom := errors.New("disk on fire")
	inj.ArmErr("p", custom, 1)
	if err := inj.Err("p"); !errors.Is(err, custom) {
		t.Fatalf("got %v, want custom error", err)
	}
	if err := inj.Err("p"); err != nil {
		t.Fatalf("hit 2 fired: %v", err)
	}
}

func TestArmDelaySleeps(t *testing.T) {
	inj := New()
	inj.ArmDelay("p", 30*time.Millisecond, 1)
	start := time.Now()
	if !inj.Sleep("p") {
		t.Fatal("armed sleep did not fire")
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("slept only %v", elapsed)
	}
	if inj.Sleep("p") {
		t.Fatal("hit 2 fired")
	}
}

func TestRearmReplacesSchedule(t *testing.T) {
	inj := New()
	inj.Arm("p", 1)
	inj.Fire("p")
	inj.Arm("p", 1) // fresh hit counter
	if !inj.Fire("p") {
		t.Fatal("re-armed point did not fire on its first hit")
	}
}
