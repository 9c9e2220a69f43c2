module seldon

go 1.23
