"""Golden outcomes for ``test_evm_conformance.py`` (generated; see there).

Row shape: ``ok`` success flag, ``ret`` return data (an int when it is
one 32-byte word, else hex), ``gas`` gas used, ``ops`` opcodes executed,
``writes`` the write set, ``halts`` (depth, class, message) of every frame
that halted exceptionally, ``logs`` (address, topics, data hex), ``ssa``
the SSA log's entry count with an ``SSATracer`` attached.
"""

GOLDEN = {
    'alu_add': dict(
        ok=True, ret=7, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_add_wraps': dict(
        ok=True, ret=0, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_mul': dict(
        ok=True, ret=12, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_mul_wraps': dict(
        ok=True, ret=0, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_sub': dict(
        ok=True, ret=7, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_sub_wraps': dict(
        ok=True, ret=0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff9, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_div': dict(
        ok=True, ret=3, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_div_by_zero': dict(
        ok=True, ret=0, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_sdiv': dict(
        ok=True, ret=0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffd, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_sdiv_overflow': dict(
        ok=True, ret=0x8000000000000000000000000000000000000000000000000000000000000000, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_sdiv_by_zero': dict(
        ok=True, ret=0, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_mod': dict(
        ok=True, ret=1, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_mod_by_zero': dict(
        ok=True, ret=0, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_smod': dict(
        ok=True, ret=0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_smod_by_zero': dict(
        ok=True, ret=0, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_addmod': dict(
        ok=True, ret=2, gas=21030, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'alu_addmod_no_wrap': dict(
        ok=True, ret=2, gas=21030, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'alu_addmod_by_zero': dict(
        ok=True, ret=0, gas=21030, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'alu_mulmod': dict(
        ok=True, ret=2, gas=21030, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'alu_mulmod_no_wrap': dict(
        ok=True, ret=1, gas=21030, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'alu_mulmod_by_zero': dict(
        ok=True, ret=0, gas=21030, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'alu_signextend': dict(
        ok=True, ret=0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_signextend_positive': dict(
        ok=True, ret=127, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_signextend_wide': dict(
        ok=True, ret=0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff, gas=21024, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936928, 'n:SENDER': 1},
    ),
    'alu_lt': dict(
        ok=True, ret=1, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_lt_false': dict(
        ok=True, ret=0, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_gt': dict(
        ok=True, ret=1, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_slt': dict(
        ok=True, ret=1, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_sgt': dict(
        ok=True, ret=1, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_eq': dict(
        ok=True, ret=1, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_eq_false': dict(
        ok=True, ret=0, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_iszero': dict(
        ok=True, ret=1, gas=21019, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936943, 'n:SENDER': 1},
    ),
    'alu_iszero_false': dict(
        ok=True, ret=0, gas=21019, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936943, 'n:SENDER': 1},
    ),
    'alu_and': dict(
        ok=True, ret=12, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_or': dict(
        ok=True, ret=63, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_xor': dict(
        ok=True, ret=51, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_not': dict(
        ok=True, ret=0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff, gas=21019, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936943, 'n:SENDER': 1},
    ),
    'alu_byte': dict(
        ok=True, ret=171, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_byte_out_of_range': dict(
        ok=True, ret=0, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_shl': dict(
        ok=True, ret=4, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_shl_256': dict(
        ok=True, ret=0, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_shr': dict(
        ok=True, ret=2, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_shr_256': dict(
        ok=True, ret=0, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_sar': dict(
        ok=True, ret=0xfffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_sar_256_negative': dict(
        ok=True, ret=0xffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff, gas=21022, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'alu_exp_exponent_0_bytes': dict(
        ok=True, ret=1, gas=21029, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936913, 'n:SENDER': 1},
    ),
    'alu_exp_exponent_1_byte': dict(
        ok=True, ret=243, gas=21079, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936763, 'n:SENDER': 1},
    ),
    'alu_exp_exponent_2_bytes': dict(
        ok=True, ret=0xc7adeeb80d4fff81fed242815e55bc8375a205de07597d51d2105f2f0730f401, gas=21129, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936613, 'n:SENDER': 1},
    ),
    'alu_exp_exponent_32_bytes': dict(
        ok=True, ret=1, gas=22629, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999932113, 'n:SENDER': 1},
    ),
    'sha3_0_bytes': dict(
        ok=True, ret=0xc5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470, gas=21057, ops=12, ssa=9,
        writes={'b:SENDER': 999999999999936829, 'n:SENDER': 1},
    ),
    'sha3_32_bytes': dict(
        ok=True, ret=0x99d1533d5b1f52d46ed078f873d9e797591d47911c8622346cba44a38b23c06b, gas=21578, ops=12, ssa=9,
        writes={'b:SENDER': 999999999999935266, 'n:SENDER': 1},
    ),
    'sha3_64_bytes': dict(
        ok=True, ret=0x396a3c357ef3d1cc5bcdc9deaf83ecc98183a047c0c8cf0019f43c0c55c7ce26, gas=22102, ops=12, ssa=9,
        writes={'b:SENDER': 999999999999933694, 'n:SENDER': 1},
    ),
    'sha3_137_bytes': dict(
        ok=True, ret=0xa6103b089a404974c2b460048bfddd45108748fbdd9bad451f54d1fe95f8f284, gas=23294, ops=12, ssa=9,
        writes={'b:SENDER': 999999999999930118, 'n:SENDER': 1},
    ),
    'sha3_expands_memory': dict(
        ok=True, ret=96, gas=21071, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999936787, 'n:SENDER': 1},
    ),
    'sha3_zero_size_at_huge_offset': dict(
        ok=True, ret=0, gas=21052, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999936844, 'n:SENDER': 1},
    ),
    'env_address': dict(
        ok=True, ret=0xa00000000000000000000000000000000000ca11, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_origin': dict(
        ok=True, ret=0xa000000000000000000000000000000000005e4d, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_caller': dict(
        ok=True, ret=0xa000000000000000000000000000000000005e4d, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_callvalue': dict(
        ok=True, ret=12345, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_calldatasize': dict(
        ok=True, ret=5, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_codesize': dict(
        ok=True, ret=7, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_gasprice': dict(
        ok=True, ret=3, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_coinbase': dict(
        ok=True, ret=0xa000000000000000000000000000000000c0ffee, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_timestamp': dict(
        ok=True, ret=1650000000, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_number': dict(
        ok=True, ret=14000123, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_gaslimit': dict(
        ok=True, ret=29000000, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_chainid': dict(
        ok=True, ret=5, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_pc_at_0': dict(
        ok=True, ret=0, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_pc_after_push32': dict(
        ok=True, ret=37, gas=21093, ops=10, ssa=16,
        writes={'b:SENDER': 999999999999924376, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_msize_empty': dict(
        ok=True, ret=0, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_msize_after_mstore': dict(
        ok=True, ret=96, gas=21098, ops=9, ssa=16,
        writes={'b:SENDER': 999999999999924361, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_gas': dict(
        ok=True, ret=478930, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_gas_after_work': dict(
        ok=True, ret=478919, gas=21094, ops=10, ssa=16,
        writes={'b:SENDER': 999999999999924373, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'env_returndatasize_before_any_call': dict(
        ok=True, ret=0, gas=21083, ops=6, ssa=16,
        writes={'b:SENDER': 999999999999924406, 'b:CONTRACT': 12345, 'n:SENDER': 1},
    ),
    'balance_cold_then_warm': dict(
        ok=True, ret=2000, gas=23722, ops=10, ssa=13,
        writes={'b:SENDER': 999999999999928834, 'n:SENDER': 1},
    ),
    'balance_of_missing_account': dict(
        ok=True, ret=0, gas=23616, ops=7, ssa=11,
        writes={'b:SENDER': 999999999999929152, 'n:SENDER': 1},
    ),
    'balance_of_sender_is_warm': dict(
        ok=True, ret=478894, gas=21119, ops=9, ssa=10,
        writes={'b:SENDER': 999999999999936643, 'n:SENDER': 1},
    ),
    'selfbalance': dict(
        ok=True, ret=782, gas=21018, ops=6, ssa=18,
        writes={'b:SENDER': 999999999999936169, 'b:CONTRACT': 782, 'n:SENDER': 1},
    ),
    'extcodesize': dict(
        ok=True, ret=9, gas=23616, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999929152, 'n:SENDER': 1},
    ),
    'extcodesize_of_missing_account': dict(
        ok=True, ret=0, gas=23616, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999929152, 'n:SENDER': 1},
    ),
    'extcodehash': dict(
        ok=True, ret=0x4d1863bde1e071dd36dc31c5bda438794accff2eae7b4839c9dc162750e6295e, gas=23616, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999929152, 'n:SENDER': 1},
    ),
    'extcodehash_of_missing_account': dict(
        ok=True, ret=0, gas=23616, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999929152, 'n:SENDER': 1},
    ),
    'blockhash_parent': dict(
        ok=True, ret=0x9d72d40be865312ade603d03b2b89889854e84f506b8b28b98c384ae52cc5cb4, gas=21036, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936892, 'n:SENDER': 1},
    ),
    'blockhash_256_back': dict(
        ok=True, ret=0x436fa3a16b354ee4c5b08415d182bb55b39c1612bdab24c0a7f460c81e968547, gas=21036, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936892, 'n:SENDER': 1},
    ),
    'blockhash_too_old': dict(
        ok=True, ret=0, gas=21036, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936892, 'n:SENDER': 1},
    ),
    'blockhash_of_current': dict(
        ok=True, ret=0, gas=21036, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936892, 'n:SENDER': 1},
    ),
    'calldataload': dict(
        ok=True, ret=0x102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20, gas=21530, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999935410, 'n:SENDER': 1},
    ),
    'calldataload_padded': dict(
        ok=True, ret=0x15161718191a1b1c1d1e1f200000000000000000000000000000000000000000, gas=21531, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999935407, 'n:SENDER': 1},
    ),
    'calldataload_beyond': dict(
        ok=True, ret=0, gas=21531, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999935407, 'n:SENDER': 1},
    ),
    'calldataload_huge_offset': dict(
        ok=True, ret=0, gas=21531, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999935407, 'n:SENDER': 1},
    ),
    'calldatacopy': dict(
        ok=True, ret=0x5060708090a0b0c00000000000000000000000000000000000000000000, gas=21535, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999935395, 'n:SENDER': 1},
    ),
    'calldatacopy_padded_past_end': dict(
        ok=True, ret='1112131415161718191a1b1c1d1e1f200000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000040', gas=21551, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999935347, 'n:SENDER': 1},
    ),
    'calldatacopy_zero_size_at_huge_offset': dict(
        ok=True, ret=0, gas=21537, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999935389, 'n:SENDER': 1},
    ),
    'codecopy': dict(
        ok=True, ret=0x600c5f5f3960205ff30000000000000000000000000000000000000000000000, gas=21021, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936937, 'n:SENDER': 1},
    ),
    'codecopy_padded_past_end': dict(
        ok=True, ret=0x60205ff300000000000000000000000000000000000000000000000000000000, gas=21022, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936934, 'n:SENDER': 1},
    ),
    'codecopy_in_delegated_frame_copies_executed_code': dict(
        ok=True, ret=0x385f5f39385ff300000000000000000000000000000000000000000000000000, gas=24246, ops=18, ssa=9,
        writes={'b:SENDER': 999999999999927262, 'n:SENDER': 1},
    ),
    'pop': dict(
        ok=True, ret=1, gas=21021, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999936937, 'n:SENDER': 1},
    ),
    'push0': dict(
        ok=True, ret=0, gas=21015, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936955, 'n:SENDER': 1},
    ),
    'push1': dict(
        ok=True, ret=161, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push2': dict(
        ok=True, ret=41378, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push3': dict(
        ok=True, ret=10592931, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push4': dict(
        ok=True, ret=2711790500, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push5': dict(
        ok=True, ret=694218368165, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push6': dict(
        ok=True, ret=177719902250406, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push7': dict(
        ok=True, ret=45496294976104103, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push8': dict(
        ok=True, ret=11647051513882650536, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push9': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push10': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aa, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push11': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaab, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push12': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabac, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push13': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacad, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push14': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadae, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push15': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeaf, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push16': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push17': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push18': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push19': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push20': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push21': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push22': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push23': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push24': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push25': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push26': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9ba, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push27': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babb, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push28': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push29': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbd, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push30': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbe, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push31': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebf, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push32': dict(
        ok=True, ret=0xa1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'push32_of_5b_bytes': dict(
        ok=True, ret=0x5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b5b, gas=21016, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936952, 'n:SENDER': 1},
    ),
    'dup1': dict(
        ok=True, ret=116, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap1': dict(
        ok=True, ret=115, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup2': dict(
        ok=True, ret=115, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap2': dict(
        ok=True, ret=114, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup3': dict(
        ok=True, ret=114, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap3': dict(
        ok=True, ret=113, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup4': dict(
        ok=True, ret=113, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap4': dict(
        ok=True, ret=112, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup5': dict(
        ok=True, ret=112, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap5': dict(
        ok=True, ret=111, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup6': dict(
        ok=True, ret=111, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap6': dict(
        ok=True, ret=110, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup7': dict(
        ok=True, ret=110, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap7': dict(
        ok=True, ret=109, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup8': dict(
        ok=True, ret=109, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap8': dict(
        ok=True, ret=108, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup9': dict(
        ok=True, ret=108, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap9': dict(
        ok=True, ret=107, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup10': dict(
        ok=True, ret=107, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap10': dict(
        ok=True, ret=106, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup11': dict(
        ok=True, ret=106, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap11': dict(
        ok=True, ret=105, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup12': dict(
        ok=True, ret=105, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap12': dict(
        ok=True, ret=104, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup13': dict(
        ok=True, ret=104, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap13': dict(
        ok=True, ret=103, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup14': dict(
        ok=True, ret=103, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap14': dict(
        ok=True, ret=102, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup15': dict(
        ok=True, ret=102, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap15': dict(
        ok=True, ret=101, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'dup16': dict(
        ok=True, ret=101, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap16': dict(
        ok=True, ret=100, gas=21067, ops=23, ssa=9,
        writes={'b:SENDER': 999999999999936799, 'n:SENDER': 1},
    ),
    'swap_moves_top_down': dict(
        ok=True, ret=3, gas=21029, ops=11, ssa=9,
        writes={'b:SENDER': 999999999999936913, 'n:SENDER': 1},
    ),
    'mload_fresh_memory_is_zero': dict(
        ok=True, ret=0, gas=21018, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999936946, 'n:SENDER': 1},
    ),
    'mstore_then_mload_unaligned': dict(
        ok=True, ret=0xffffffffffffffffffffffffffffffff00000000000000000000000000000000, gas=21030, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'mstore8': dict(
        ok=True, ret=52, gas=21027, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999936919, 'n:SENDER': 1},
    ),
    'mstore8_expands_one_word': dict(
        ok=True, ret=96, gas=21030, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936910, 'n:SENDER': 1},
    ),
    'mstore_across_a_word_boundary': dict(
        ok=True, ret=64, gas=21027, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936919, 'n:SENDER': 1},
    ),
    'mload_expansion_quadratic_step': dict(
        ok=True, ret=8224, gas=21920, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999934240, 'n:SENDER': 1},
    ),
    'mload_expansion_out_of_gas': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'OutOfGas', 'need 2195587 gas at pc=4')],
    ),
    'mload_expansion_unpayable': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'OutOfGas', 'memory expansion to 16777248 bytes is unpayable')],
    ),
    'mstore_at_2_pow_255': dict(
        ok=False, ret='', gas=500000, ops=3, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[
            (0, 'OutOfGas', 'memory expansion to 57896044618658097711785492504343953926634992332820282019728792003956564820000 bytes is unpayable'),
        ],
    ),
    'return_zero_size_at_huge_offset': dict(
        ok=True, ret='', gas=21005, ops=3, ssa=9,
        writes={'b:SENDER': 999999999999936985, 'n:SENDER': 1},
    ),
    'sload_cold_then_warm': dict(
        ok=True, ret=10, gas=23222, ops=10, ssa=13,
        writes={'b:SENDER': 999999999999930334, 'n:SENDER': 1},
    ),
    'sload_missing_slot': dict(
        ok=True, ret=0, gas=23116, ops=7, ssa=11,
        writes={'b:SENDER': 999999999999930652, 'n:SENDER': 1},
    ),
    'sstore_set_cold': dict(
        ok=True, ret='', gas=43106, ops=4, ssa=10,
        writes={'b:SENDER': 999999999999870682, 'n:SENDER': 1, 's:CONTRACT:0x1': 7},
    ),
    'sstore_set_warm': dict(
        ok=True, ret='', gas=43111, ops=7, ssa=11,
        writes={'b:SENDER': 999999999999870667, 'n:SENDER': 1, 's:CONTRACT:0x1': 7},
    ),
    'sstore_reset_cold': dict(
        ok=True, ret='', gas=28106, ops=4, ssa=10,
        writes={'b:SENDER': 999999999999915682, 'n:SENDER': 1, 's:CONTRACT:0x1': 7},
    ),
    'sstore_reset_warm': dict(
        ok=True, ret='', gas=28111, ops=7, ssa=11,
        writes={'b:SENDER': 999999999999915667, 'n:SENDER': 1, 's:CONTRACT:0x1': 7},
    ),
    'sstore_clear_cold': dict(
        ok=True, ret='', gas=28105, ops=4, ssa=10,
        writes={'b:SENDER': 999999999999915685, 'n:SENDER': 1, 's:CONTRACT:0x1': 0},
    ),
    'sstore_clear_warm': dict(
        ok=True, ret='', gas=28110, ops=7, ssa=11,
        writes={'b:SENDER': 999999999999915670, 'n:SENDER': 1, 's:CONTRACT:0x1': 0},
    ),
    'sstore_noop_cold': dict(
        ok=True, ret='', gas=23206, ops=4, ssa=10,
        writes={'b:SENDER': 999999999999930382, 'n:SENDER': 1, 's:CONTRACT:0x1': 5},
    ),
    'sstore_noop_warm': dict(
        ok=True, ret='', gas=23211, ops=7, ssa=11,
        writes={'b:SENDER': 999999999999930367, 'n:SENDER': 1, 's:CONTRACT:0x1': 5},
    ),
    'sstore_set_then_reset_same_slot': dict(
        ok=True, ret=8, gas=48228, ops=13, ssa=13,
        writes={'b:SENDER': 999999999999855316, 'n:SENDER': 1, 's:CONTRACT:0x1': 8},
    ),
    'sstore_out_of_gas': dict(
        ok=False, ret='', gas=31000, ops=3, ssa=9,
        writes={'b:SENDER': 999999999999907000, 'n:SENDER': 1},
        halts=[(0, 'OutOfGas', 'need 22100 gas at pc=4')],
    ),
    'jump': dict(
        ok=True, ret=42, gas=21028, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936916, 'n:SENDER': 1},
    ),
    'jumpi_taken': dict(
        ok=True, ret=7, gas=21033, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999936901, 'n:SENDER': 1},
    ),
    'jumpi_taken_on_any_nonzero': dict(
        ok=True, ret=7, gas=21033, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999936901, 'n:SENDER': 1},
    ),
    'jumpi_untaken': dict(
        ok=True, ret=5, gas=21032, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936904, 'n:SENDER': 1},
    ),
    'jumpi_untaken_with_bad_destination': dict(
        ok=True, ret=5, gas=21032, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936904, 'n:SENDER': 1},
    ),
    'jumpi_taken_with_bad_destination': dict(
        ok=False, ret='', gas=500000, ops=3, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidJump', 'JUMPI to non-JUMPDEST 65535')],
    ),
    'jump_to_non_jumpdest_opcode': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidJump', 'JUMP to non-JUMPDEST 3')],
    ),
    'jump_past_end_of_code': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidJump', 'JUMP to non-JUMPDEST 4096')],
    ),
    'jump_to_code_length': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidJump', 'JUMP to non-JUMPDEST 3')],
    ),
    'jump_to_huge_destination': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[
            (0, 'InvalidJump', 'JUMP to non-JUMPDEST 115792089237316195423570985008687907853269984665640564039457584007913129639935'),
        ],
    ),
    'loop_counts_to_five': dict(
        ok=True, ret=5, gas=21160, ops=46, ssa=9,
        writes={'b:SENDER': 999999999999936520, 'n:SENDER': 1},
    ),
    'jumpdest_costs_one_gas': dict(
        ok=True, ret='', gas=21003, ops=4, ssa=9,
        writes={'b:SENDER': 999999999999936991, 'n:SENDER': 1},
    ),
    'jump_into_push_data_that_looks_like_jumpdest': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidJump', 'JUMP to non-JUMPDEST 4')],
    ),
    'jump_to_jumpdest_right_after_push_data': dict(
        ok=True, ret=42, gas=21028, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936916, 'n:SENDER': 1},
    ),
    'jump_over_push32_of_5b_bytes': dict(
        ok=True, ret=42, gas=21028, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936916, 'n:SENDER': 1},
    ),
    'jump_into_push32_of_5b_bytes': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidJump', 'JUMP to non-JUMPDEST 16')],
    ),
    'truncated_push32_is_last_instruction': dict(
        ok=True, ret='', gas=21006, ops=3, ssa=9,
        writes={'b:SENDER': 999999999999936982, 'n:SENDER': 1},
    ),
    'truncated_push2_is_last_instruction': dict(
        ok=True, ret='', gas=21006, ops=3, ssa=9,
        writes={'b:SENDER': 999999999999936982, 'n:SENDER': 1},
    ),
    'push1_with_no_data_is_last_byte': dict(
        ok=True, ret='', gas=21006, ops=3, ssa=9,
        writes={'b:SENDER': 999999999999936982, 'n:SENDER': 1},
    ),
    'truncated_push_of_5b': dict(
        ok=True, ret='', gas=21003, ops=2, ssa=9,
        writes={'b:SENDER': 999999999999936991, 'n:SENDER': 1},
    ),
    'pc_runs_off_the_end': dict(
        ok=True, ret='', gas=21009, ops=4, ssa=9,
        writes={'b:SENDER': 999999999999936973, 'n:SENDER': 1},
    ),
    'single_jumpdest': dict(
        ok=True, ret='', gas=21001, ops=2, ssa=9,
        writes={'b:SENDER': 999999999999936997, 'n:SENDER': 1},
    ),
    'undefined_opcode_behind_unconditional_jump': dict(
        ok=True, ret=7, gas=21028, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999936916, 'n:SENDER': 1},
    ),
    'undefined_opcode_executed': dict(
        ok=False, ret='', gas=500000, ops=3, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidOpcode', 'undefined opcode 0x0c at pc=3')],
    ),
    'undefined_opcode_at_pc_0': dict(
        ok=False, ret='', gas=500000, ops=1, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidOpcode', 'undefined opcode 0xef at pc=0')],
    ),
    'invalid_opcode': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'InvalidOpcode', 'INVALID opcode executed')],
    ),
    'stop': dict(
        ok=True, ret='', gas=21003, ops=2, ssa=9,
        writes={'b:SENDER': 999999999999936991, 'n:SENDER': 1},
    ),
    'empty_code': dict(
        ok=True, ret='', gas=21000, ops=0, ssa=9,
        writes={'b:SENDER': 999999999999937000, 'n:SENDER': 1},
    ),
    'transfer_to_account_without_code': dict(
        ok=True, ret='', gas=21000, ops=0, ssa=16,
        writes={'b:EMPTY': 99, 'b:SENDER': 999999999999936901, 'n:SENDER': 1},
    ),
    'log0_empty': dict(
        ok=True, ret='', gas=21379, ops=4, ssa=9,
        writes={'b:SENDER': 999999999999935863, 'n:SENDER': 1},
        logs=[('CONTRACT', (), '')],
    ),
    'log0_32_bytes': dict(
        ok=True, ret='', gas=21647, ops=7, ssa=9,
        writes={'b:SENDER': 999999999999935059, 'n:SENDER': 1},
        logs=[
            ('CONTRACT', (), '00000000000000000000000000000000000000000000000000000000000000ab'),
        ],
    ),
    'log1_5_bytes': dict(
        ok=True, ret='', gas=21810, ops=8, ssa=9,
        writes={'b:SENDER': 999999999999934570, 'n:SENDER': 1},
        logs=[('CONTRACT', (17,), '0000abcdef')],
    ),
    'log2_empty': dict(
        ok=True, ret='', gas=22135, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999933595, 'n:SENDER': 1},
        logs=[('CONTRACT', (17, 34), '')],
    ),
    'log3_64_bytes_expands_memory': dict(
        ok=True, ret=64, gas=23044, ops=12, ssa=9,
        writes={'b:SENDER': 999999999999930868, 'n:SENDER': 1},
        logs=[
            ('CONTRACT', (17, 34, 51), '00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000'),
        ],
    ),
    'log4_32_bytes': dict(
        ok=True, ret='', gas=23159, ops=11, ssa=9,
        writes={'b:SENDER': 999999999999930523, 'n:SENDER': 1},
        logs=[
            ('CONTRACT', (17, 34, 51, 68), 'ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff'),
        ],
    ),
    'log0_zero_size_at_huge_offset': dict(
        ok=True, ret=0, gas=21395, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999935815, 'n:SENDER': 1},
        logs=[('CONTRACT', (), '')],
    ),
    # differs from the parent tree on purpose (FIXED_SINCE_PARENT)
    'log0_keeps_rest_of_stack': dict(
        ok=True, ret=7, gas=21652, ops=9, ssa=9,
        writes={'b:SENDER': 999999999999935044, 'n:SENDER': 1},
        logs=[
            ('CONTRACT', (), '0000000000000000000000000000000000000000000000000000000000000000'),
        ],
    ),
    'log1_keeps_rest_of_stack': dict(
        ok=True, ret=7, gas=22030, ops=10, ssa=9,
        writes={'b:SENDER': 999999999999933910, 'n:SENDER': 1},
        logs=[
            ('CONTRACT', (17,), '0000000000000000000000000000000000000000000000000000000000000000'),
        ],
    ),
    'log_then_revert': dict(
        ok=False, ret='', gas=21383, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999935851, 'n:SENDER': 1},
        halts=[(0, 'Revert', 'execution reverted')],
        logs=[('CONTRACT', (), '')],
    ),
    'return_data': dict(
        ok=True, ret='c0de', gas=21017, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936949, 'n:SENDER': 1},
    ),
    'return_expands_memory': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000', gas=21015, ops=3, ssa=9,
        writes={'b:SENDER': 999999999999936955, 'n:SENDER': 1},
    ),
    'revert_with_data': dict(
        ok=False, ret='dead', gas=21017, ops=6, ssa=9,
        writes={'b:SENDER': 999999999999936949, 'n:SENDER': 1},
        halts=[(0, 'Revert', 'execution reverted')],
    ),
    'revert_undoes_writes_and_keeps_gas': dict(
        ok=False, ret='', gas=43110, ops=6, ssa=10,
        writes={'b:SENDER': 999999999999870670, 'n:SENDER': 1},
        halts=[(0, 'Revert', 'execution reverted')],
    ),
    'out_of_gas_mid_program': dict(
        ok=False, ret='', gas=21005, ops=2, ssa=9,
        writes={'b:SENDER': 999999999999936985, 'n:SENDER': 1},
        halts=[(0, 'OutOfGas', 'need 3 gas at pc=2')],
    ),
    'stack_underflow_pop': dict(
        ok=False, ret='', gas=500000, ops=1, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'StackUnderflow', 'pop from empty stack')],
    ),
    'stack_underflow_alu': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'StackUnderflow', 'need 2 stack items, have 1')],
    ),
    'stack_underflow_dup': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'StackUnderflow', 'DUP2 on stack of 1')],
    ),
    'stack_underflow_swap': dict(
        ok=False, ret='', gas=500000, ops=2, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'StackUnderflow', 'SWAP1 on stack of 1')],
    ),
    'stack_overflow': dict(
        ok=False, ret='', gas=500000, ops=4095, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'StackOverflow', 'stack limit of 1024 exceeded')],
    ),
    'stack_at_limit_is_fine': dict(
        ok=True, ret=1021, gas=55729, ops=10216, ssa=9,
        writes={'b:SENDER': 999999999999832813, 'n:SENDER': 1},
    ),
    'call_returns_data': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000beef0000000000000000000000000000000000000000000000000000000000000001', gas=24253, ops=19, ssa=9,
        writes={'b:SENDER': 999999999999927241, 'n:SENDER': 1},
    ),
    'call_cold_then_warm_account': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000beef0000000000000000000000000000000000000000000000000000000000000001', gas=24991, ops=34, ssa=9,
        writes={'b:SENDER': 999999999999925027, 'n:SENDER': 1},
    ),
    'call_passes_calldata_and_truncates_return': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000a1b2c3d40000000000000000000000000000000000000000000000000000000000000000a1b200000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000010000000000000000000000000000000000000000000000000000000000000004', gas=24281, ops=26, ssa=9,
        writes={'b:SENDER': 999999999999927157, 'n:SENDER': 1},
    ),
    'call_callee_writes_its_own_storage': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001', gas=46343, ops=17, ssa=10,
        writes={'b:SENDER': 999999999999860971, 'n:SENDER': 1, 's:CALLEE:0x1': 9},
    ),
    'call_callee_sees_caller_and_value': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000011b0000000000000000000000000000000000000000000000000000000000000001', gas=97267, ops=28, ssa=26,
        writes={
            'b:SENDER': 999999999999708099,
            'b:CONTRACT': 60,
            'b:CALLEE': 40,
            'n:SENDER': 1,
            's:CALLEE:0x0': 0xa00000000000000000000000000000000000ca11,
            's:CALLEE:0x1': 0xa00000000000000000000000000000000000ca12,
            's:CALLEE:0x2': 40,
        },
    ),
    'call_with_value_gets_stipend_with_zero_gas': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000beef0000000000000000000000000000000000000000000000000000000000000001', gas=30954, ops=19, ssa=23,
        writes={
            'b:SENDER': 999999999999907128,
            'b:CONTRACT': 9,
            'b:CALLEE': 1,
            'n:SENDER': 1,
        },
    ),
    'call_with_value_stipend_too_small_for_sstore': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000', gas=33238, ops=16, ssa=23,
        writes={'b:SENDER': 999999999999900276, 'b:CONTRACT': 10, 'n:SENDER': 1},
        halts=[(1, 'OutOfGas', 'need 22100 gas at pc=4')],
    ),
    'call_with_zero_gas_and_no_value_fails_callee': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000', gas=24238, ops=14, ssa=9,
        writes={'b:SENDER': 999999999999927286, 'n:SENDER': 1},
        halts=[(1, 'OutOfGas', 'need 3 gas at pc=0')],
    ),
    'call_with_value_exceeding_balance_fails_the_frame': dict(
        ok=False, ret='', gas=500000, ops=8, ssa=20,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'EVMError', 'insufficient balance for transfer')],
    ),
    'call_gas_request_capped_at_63_64ths': dict(
        ok=True, ret='0000000000000000000000000000000000000000000000000000000000072574000000000000000000000000000000000000000000000000000000000007426d', gas=24257, ops=21, ssa=9,
        writes={'b:SENDER': 999999999999927229, 'n:SENDER': 1},
    ),
    'call_to_account_without_code': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001', gas=24237, ops=14, ssa=9,
        writes={'b:SENDER': 999999999999927289, 'n:SENDER': 1},
    ),
    'call_with_value_to_account_without_code': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001', gas=30938, ops=14, ssa=23,
        writes={
            'b:EMPTY': 5,
            'b:SENDER': 999999999999907176,
            'b:CONTRACT': 5,
            'n:SENDER': 1,
        },
    ),
    'call_reverting_callee_returns_data_and_gas': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000dead0000000000000000000000000000000000000000000000000000000000000000', gas=24253, ops=19, ssa=9,
        writes={'b:SENDER': 999999999999927241, 'n:SENDER': 1},
        halts=[(1, 'Revert', 'execution reverted')],
    ),
    'call_reverting_callee_with_value_unwinds_transfer': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000dead0000000000000000000000000000000000000000000000000000000000000000', gas=30953, ops=19, ssa=23,
        writes={'b:SENDER': 999999999999907131, 'b:CONTRACT': 10, 'n:SENDER': 1},
        halts=[(1, 'Revert', 'execution reverted')],
    ),
    'call_failing_callee_consumes_its_gas': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000', gas=74238, ops=17, ssa=10,
        writes={'b:SENDER': 999999999999777286, 'n:SENDER': 1},
        halts=[(1, 'InvalidOpcode', 'INVALID opcode executed')],
    ),
    'call_nested_two_deep': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000beef0000000000000000000000000000000000000000000000000000000000000001', gas=27490, ops=32, ssa=9,
        writes={'b:SENDER': 999999999999917530, 'n:SENDER': 1},
    ),
    'call_callee_logs': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001', gas=24994, ops=18, ssa=9,
        writes={'b:SENDER': 999999999999925018, 'n:SENDER': 1},
        logs=[('CALLEE', (119,), '')],
    ),
    'returndatasize_and_copy_after_call': dict(
        ok=True, ret='0000000000000000000000000000000000000000000000000000000000000020000000000000000000000000000000000000000000000000000000000000beef', gas=24269, ops=25, ssa=9,
        writes={'b:SENDER': 999999999999927193, 'n:SENDER': 1},
    ),
    'returndatacopy_partial': dict(
        ok=True, ret=0xbeef000000000000000000000000000000000000000000000000000000000000, gas=24260, ops=22, ssa=9,
        writes={'b:SENDER': 999999999999927220, 'n:SENDER': 1},
    ),
    'returndatacopy_out_of_bounds': dict(
        ok=False, ret='', gas=500000, ops=19, ssa=9,
        writes={'b:SENDER': 999999999998500000, 'n:SENDER': 1},
        halts=[(0, 'EVMError', 'RETURNDATACOPY out of bounds')],
    ),
    'returndatacopy_after_revert': dict(
        ok=True, ret=57005, gas=24258, ops=22, ssa=9,
        writes={'b:SENDER': 999999999999927226, 'n:SENDER': 1},
        halts=[(1, 'Revert', 'execution reverted')],
    ),
    'returndata_cleared_by_failed_call': dict(
        ok=True, ret=0, gas=492631, ops=31, ssa=9,
        writes={'b:SENDER': 999999999998522107, 'n:SENDER': 1},
        halts=[(1, 'InvalidOpcode', 'INVALID opcode executed')],
    ),
    'delegatecall_runs_library_code_in_caller_context': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000011b0000000000000000000000000000000000000000000000000000000000000001', gas=90576, ops=30, ssa=19,
        writes={
            'b:SENDER': 999999999999728217,
            'b:CONTRACT': 55,
            'n:SENDER': 1,
            's:CONTRACT:0x0': 0xa000000000000000000000000000000000005e4d,
            's:CONTRACT:0x1': 0xa00000000000000000000000000000000000ca11,
            's:CONTRACT:0x2': 55,
        },
    ),
    'call_runs_library_code_in_its_own_context': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000011b0000000000000000000000000000000000000000000000000000000000000001', gas=97279, ops=31, ssa=26,
        writes={
            'b:SENDER': 999999999999708108,
            'b:CONTRACT': 50,
            'b:LIBRARY': 5,
            'n:SENDER': 1,
            's:LIBRARY:0x0': 0xa00000000000000000000000000000000000ca11,
            's:LIBRARY:0x1': 0xa00000000000000000000000000000000000ca13,
            's:LIBRARY:0x2': 5,
        },
    ),
    'delegatecall_to_account_without_code': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001', gas=24234, ops=13, ssa=9,
        writes={'b:SENDER': 999999999999927298, 'n:SENDER': 1},
    ),
    'delegatecall_library_reverts': dict(
        ok=True, ret='000000000000000000000000000000000000000000000000000000000000dead0000000000000000000000000000000000000000000000000000000000000000', gas=46356, ops=21, ssa=10,
        writes={'b:SENDER': 999999999999860932, 'n:SENDER': 1},
        halts=[(1, 'Revert', 'execution reverted')],
    ),
    'delegatecall_through_proxy_erc20_transfer': dict(
        ok=True, ret=1, gas=57966, ops=87, ssa=19,
        writes={
            'b:SENDER': 999999999999826102,
            'n:SENDER': 1,
            's:PROXY:0x291a020ab809fa7903e5717d3e7317609995aec2289089c745ca2c2e68caf941': 700,
            's:PROXY:0x2fdcfeef7facecfdf2dc61b6bea45c4966002d99183f590d2ca6e2818fbbd1f6': 300,
        },
        logs=[
            ('PROXY', (0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef, 0xa000000000000000000000000000000000005e4d, 0xa000000000000000000000000000000000000b0b), '000000000000000000000000000000000000000000000000000000000000012c'),
        ],
    ),
    'delegatecall_through_proxy_erc20_transfer_over_balance': dict(
        ok=False, ret='', gas=28993, ops=56, ssa=14,
        writes={'b:SENDER': 999999999999913021, 'n:SENDER': 1},
        halts=[
            (1, 'Revert', 'execution reverted'),
            (0, 'Revert', 'execution reverted'),
        ],
    ),
    'erc20_transfer_direct': dict(
        ok=True, ret=1, gas=52596, ops=65, ssa=17,
        writes={
            'b:SENDER': 999999999999842212,
            'n:SENDER': 1,
            's:CONTRACT:0x291a020ab809fa7903e5717d3e7317609995aec2289089c745ca2c2e68caf941': 700,
            's:CONTRACT:0x2fdcfeef7facecfdf2dc61b6bea45c4966002d99183f590d2ca6e2818fbbd1f6': 300,
        },
        logs=[
            ('CONTRACT', (0xddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef, 0xa000000000000000000000000000000000005e4d, 0xa000000000000000000000000000000000000b0b), '000000000000000000000000000000000000000000000000000000000000012c'),
        ],
    ),
    'staticcall_reads_are_fine': dict(
        ok=True, ret='0000000000000000000000000000000000000000000000000000000000005afe0000000000000000000000000000000000000000000000000000000000000001', gas=26350, ops=19, ssa=11,
        writes={'b:SENDER': 999999999999920950, 'n:SENDER': 1},
    ),
    'staticcall_sstore_is_write_protected': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000', gas=492580, ops=15, ssa=9,
        writes={'b:SENDER': 999999999998522260, 'n:SENDER': 1},
        halts=[(1, 'WriteProtection', 'SSTORE in a static call')],
    ),
    'staticcall_log_is_write_protected': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000', gas=492580, ops=15, ssa=9,
        writes={'b:SENDER': 999999999998522260, 'n:SENDER': 1},
        halts=[(1, 'WriteProtection', 'LOG in a static call')],
    ),
    'staticcall_value_call_is_write_protected': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000', gas=492580, ops=20, ssa=9,
        writes={'b:SENDER': 999999999998522260, 'n:SENDER': 1},
        halts=[(1, 'WriteProtection', 'value-bearing CALL in a static context')],
    ),
    'staticcall_protection_reaches_nested_call': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001', gas=485327, ops=28, ssa=9,
        writes={'b:SENDER': 999999999998544019, 'n:SENDER': 1},
        halts=[(2, 'WriteProtection', 'SSTORE in a static call')],
    ),
    'staticcall_protection_reaches_nested_delegatecall': dict(
        ok=True, ret='00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001', gas=485327, ops=27, ssa=9,
        writes={'b:SENDER': 999999999998544019, 'n:SENDER': 1},
        halts=[(2, 'WriteProtection', 'SSTORE in a static call')],
    ),
}
