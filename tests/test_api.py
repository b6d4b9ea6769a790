import ncphase

# the public API; adding or removing a name here is a reviewed change
PUBLIC_NAMES = [
    "BetaGamma", "DerivedQuantities", "EntropyResult", "GaussPoly", "LAMBDA_MIN",
    "ModelParams", "MomentTable", "PhaseVariables", "QuadraticForm", "ReducedState",
    "WignerState", "beta_gamma", "build_map", "cell_size", "derive", "e1_nu_zero",
    "e1_nu_zero_supremum", "energy_level", "gaussian_star", "genvalue_residual",
    "gram", "hamiltonians_pm", "integrate", "lambda_from_theta", "lambda_from_uv",
    "load_params", "marginalize", "oscillator_hamiltonian", "reduce",
    "renyi_entanglement", "renyi_numeric", "renyi_supremum", "renyi_total",
    "star_exp", "star_log_gaussian", "star_power", "star_product_poly_left",
    "star_product_poly_right", "tsallis_entanglement", "tsallis_numeric",
    "von_neumann_entanglement", "von_neumann_numeric", "von_neumann_supremum",
    "wigner_state",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 44
    assert sorted(ncphase.__all__) == PUBLIC_NAMES


def test_star_import_binds_each_public_name():
    namespace = {}
    exec("from ncphase import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(ncphase, name)
