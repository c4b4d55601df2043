// Package ib12x reproduces "High Performance MPI on IBM 12x InfiniBand
// Architecture" (Vishnu, Benton, Panda — IPDPS 2007) as a deterministic
// discrete-event simulation in pure Go.
//
// The library builds every layer the paper touches: the IBM 12x dual-port
// HCA with its multiple send/receive DMA engines (internal/hca), the GX+
// host bus (internal/gx), the InfiniBand verbs and Reliable Connection
// transport (internal/ib), the switched fabric (internal/fabric), the
// intra-node shared-memory channel (internal/shmem), the MVAPICH-style ADI
// layer with eager/rendezvous protocols and the paper's communication
// marker (internal/adi), the multi-rail scheduling policies including EPC
// (internal/core), an MPI interface with point-to-point and collective
// operations (internal/mpi), and the NAS Parallel Benchmarks: the
// evaluation's IS and FT, plus EP, CG, MG and an LU wavefront
// (internal/nas).
//
// The benchmarks in bench_test.go regenerate every figure of the paper's
// evaluation; cmd/reproduce prints them as tables. See README.md for a
// tour, DESIGN.md for the architecture and substitution decisions, and
// EXPERIMENTS.md for paper-versus-measured results.
package ib12x
