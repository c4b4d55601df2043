package harness

import (
	"errors"
	"fmt"
	"testing"

	"ib12x/internal/mpi"
)

func TestMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(items, func(x int) (int, error) { return x * x, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapLowestErrorWins(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for trial := 0; trial < 20; trial++ {
		_, err := Map(items, func(x int) (int, error) {
			if x%2 == 1 {
				return 0, fmt.Errorf("item %d failed", x)
			}
			return x, nil
		})
		if err == nil || err.Error() != "item 1 failed" {
			t.Fatalf("trial %d: err = %v, want the lowest failing index", trial, err)
		}
	}
}

func TestMapPanicOutranksError(t *testing.T) {
	items := []int{0, 1, 2, 3}
	defer func() {
		r := recover()
		if r != "boom 2" {
			t.Fatalf("recovered %v, want the panicking item's value", r)
		}
	}()
	Map(items, func(x int) (int, error) {
		if x == 1 {
			return 0, errors.New("plain error")
		}
		if x == 2 {
			panic("boom 2")
		}
		return x, nil
	})
	t.Fatal("Map returned instead of panicking")
}

func TestMapNSerialEqualsParallel(t *testing.T) {
	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	fn := func(x int) (int, error) { return 31*x + 7, nil }
	serial, err1 := MapN(1, items, fn)
	parallel, err2 := MapN(8, items, fn)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("serial/parallel diverge at %d: %d vs %d", i, serial[i], parallel[i])
		}
	}
}

func TestWorkersEnvOverride(t *testing.T) {
	t.Setenv("IB12X_WORKERS", "3")
	if got := Workers(); got != 3 {
		t.Errorf("Workers() = %d with IB12X_WORKERS=3", got)
	}
	t.Setenv("IB12X_WORKERS", "junk")
	if got := Workers(); got < 1 {
		t.Errorf("Workers() = %d with junk override, want the GOMAXPROCS fallback", got)
	}
	t.Setenv("IB12X_WORKERS", "")
	if got := Workers(); got < 1 {
		t.Errorf("Workers() = %d, want >= 1", got)
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(nil, func(x int) (int, error) { return x, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("Map(nil) = %v, %v", got, err)
	}
}

// TestMapCapturesRankBodyPanic pins that a panic inside a simulated rank —
// not just in the item function's own frame — unwinds through mpi.Run on
// the worker that ran the item, so it is arbitrated like any other panic:
// every other item completes and the lowest panicking index is re-raised.
func TestMapCapturesRankBodyPanic(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	completed := make([]bool, len(items))
	defer func() {
		if r := recover(); r != "rank 1 of item 2" {
			t.Fatalf("recovered %v, want item 2's rank panic", r)
		}
		for i, ok := range completed {
			if ok == (i == 2 || i == 4) {
				t.Errorf("item %d completed = %v", i, ok)
			}
		}
	}()
	MapN(3, items, func(x int) (int, error) {
		_, err := mpi.Run(mpi.Config{}, func(c *mpi.Comm) {
			c.Barrier()
			if (x == 2 || x == 4) && c.Rank() == 1 {
				panic(fmt.Sprintf("rank 1 of item %d", x))
			}
		})
		completed[x] = true
		return x, err
	})
	t.Fatal("MapN returned instead of panicking")
}
