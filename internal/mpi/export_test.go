package mpi

import "math/rand"

// Bridges for package mpi_test, which may import chaos where in-package
// tests cannot.

var PayloadFor = payloadFor

func GenTrafficSizes(r *rand.Rand, msgs int) []int { return genTraffic(r, msgs).sizes }
