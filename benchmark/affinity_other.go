//go:build !linux

package main

// pinChildren is a no-op where CPU affinity is not settable this way.
func pinChildren(bool) {}
