package mpi

import (
	"math/rand"

	"ib12x/internal/adi"
	"ib12x/internal/sim"
)

// Bridges for package mpi_test, which may import chaos where in-package
// tests cannot.

var PayloadFor = payloadFor

func GenTrafficSizes(r *rand.Rand, msgs int) []int { return genTraffic(r, msgs).sizes }

// BuildWorld is the engine and world Run would arm cfg's plan against.
func BuildWorld(cfg Config) (*sim.Engine, *adi.World) { return cfg.withDefaults().build() }
