// Interchange: move circuits between glitchsim and external tools. A
// multiplier is exported as structural Verilog, re-imported, checked for
// identical activity, and also dumped as JSON — the round-trip workflow
// for analyzing third-party netlists with the paper's transition
// classification.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"

	"glitchsim"
)

func main() {
	mult := glitchsim.NewWallaceMultiplier(8)

	// 1. Export to structural Verilog (gate primitives + a helper
	// library for compound cells and flipflops).
	var v bytes.Buffer
	if err := glitchsim.ExportVerilog(&v, mult); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("wallace8.v", v.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote wallace8.v (%d bytes)\n", v.Len())

	// 2. Re-import and verify the circuit is behaviorally identical by
	// comparing classified activity under the same stimulus.
	back, err := glitchsim.ImportVerilog(bytes.NewReader(v.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	cfg := glitchsim.Config{Cycles: 500, Seed: 7}
	engine := glitchsim.NewEngine()
	ctx := context.Background()
	orig, err := engine.Measure(ctx, glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(mult), Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	imported, err := engine.Measure(ctx, glitchsim.MeasureRequest{Circuit: glitchsim.CircuitFromNetlist(back), Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original: %v\n", orig)
	fmt.Printf("imported: %v\n", imported)
	if orig.Transitions != imported.Transitions || orig.Useless != imported.Useless {
		log.Fatal("round trip changed the activity profile!")
	}
	fmt.Println("activity identical through the Verilog round trip.")

	// 3. JSON export for custom tooling.
	f, err := os.Create("wallace8.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := back.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	fmt.Println("wrote wallace8.json")
}
