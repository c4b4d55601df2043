package main

import "testing"

func TestParseSizes(t *testing.T) {
	got, err := parseSizes("1024, 2048,4096", "unibw")
	if err != nil || len(got) != 3 || got[1] != 2048 {
		t.Errorf("parseSizes = %v, %v", got, err)
	}
	if _, err := parseSizes("12,-5", "unibw"); err == nil {
		t.Error("negative size accepted")
	}
	if _, err := parseSizes("abc", "unibw"); err == nil {
		t.Error("non-numeric size accepted")
	}
	// Defaults differ per test type.
	lat, _ := parseSizes("", "latency")
	bw, _ := parseSizes("", "unibw")
	if lat[0] != 1 || bw[0] != 1024 {
		t.Errorf("default sweeps: lat starts %d, bw starts %d", lat[0], bw[0])
	}
}
