module acpsgd/benchmark

go 1.24

require acpsgd v0.0.0

replace acpsgd => ../
